package main

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sirum/internal/server"
)

func TestBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-nope"}, io.Discard); err == nil {
		t.Error("unknown flag accepted")
	}
}

// listenedOn reads run's output until the line announcing the bound
// address and returns the address as a base URL; the rest of the output
// is drained in the background.
func listenedOn(t *testing.T, out io.Reader, prefix string, done <-chan error) string {
	t.Helper()
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			go io.Copy(io.Discard, out)
			return "http://" + addr
		}
	}
	t.Fatalf("run stopped before listening: %v", <-done)
	return ""
}

// TestRunServesAndPersists drives the daemon's own serve path: it binds
// 127.0.0.1:0 with -snapshot, takes a create and one append over HTTP,
// and drains when its context is cancelled. A fresh server restored from
// the same directory then serves the session at epoch 1.
func TestRunServesAndPersists(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := run(ctx, []string{"-addr", "127.0.0.1:0", "-snapshot", dir}, pw)
		pw.Close()
		done <- err
	}()
	c := &server.Client{BaseURL: listenedOn(t, pr, "sirumd listening on ", done), HTTP: &http.Client{Timeout: time.Minute}}

	if _, err := c.CreateSession(server.CreateRequest{
		ID:      "d",
		CSV:     "Day,City,Delay\nMon,NY,10\nTue,LA,12\nMon,LA,30\nTue,NY,8\n",
		Measure: "Delay",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AppendRows("d", server.AppendRequest{
		Rows: []server.RowJSON{{Dims: []string{"Wed", "NY"}, Measure: 55}},
	}); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run after cancel: %v", err)
	}

	srv := server.New(server.Config{SnapshotDir: dir})
	defer srv.Close()
	if n, err := srv.Restore(); err != nil || n != 1 {
		t.Fatalf("restore: %d sessions, %v; want 1", n, err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	info, err := (&server.Client{BaseURL: ts.URL, HTTP: &http.Client{Timeout: time.Minute}}).GetSession("d")
	if err != nil {
		t.Fatal(err)
	}
	if info.Stats == nil || info.Stats.Epoch != 1 {
		t.Fatalf("restored session stats %+v, want epoch 1", info.Stats)
	}
}
