package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sirum/internal/server"
)

func TestBadFlags(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{"-nope"}, io.Discard); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run(ctx, []string{}, io.Discard); err == nil {
		t.Error("serve mode without -shards accepted")
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

// TestRunMigrate drives both of sirumr's real paths against an in-process
// 2-shard cluster: run serves the router on 127.0.0.1:0 from a -shards
// list written with spaces and a trailing slash, and `run migrate` empties
// shard s0 through it, printing one moved line per session.
func TestRunMigrate(t *testing.T) {
	var shards []*server.Client
	var list []string
	for i := 0; i < 2; i++ {
		srv := server.New(server.Config{ShardID: fmt.Sprintf("s%d", i)})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
		shards = append(shards, &server.Client{BaseURL: ts.URL, HTTP: &http.Client{Timeout: time.Minute}})
		list = append(list, " "+ts.URL+"/ ")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := run(ctx, []string{"-addr", "127.0.0.1:0", "-shards", strings.Join(list, ",")}, pw)
		pw.Close()
		done <- err
	}()
	base := listenedOn(t, pr, "sirumr listening on ", done)
	c := &server.Client{BaseURL: base, HTTP: &http.Client{Timeout: time.Minute}}

	// Auto-id sessions spread over the ring; create until s0 holds two.
	onS0 := 0
	for i := 0; onS0 < 2; i++ {
		if i == 20 {
			t.Fatalf("20 sessions placed, %d on s0", onS0)
		}
		if _, err := c.CreateSession(server.CreateRequest{
			Generator: &server.GeneratorSpec{Name: "income", Rows: 200, Seed: 1},
			Prepare:   server.PrepareSpec{SampleSize: 8, Seed: 1},
		}); err != nil {
			t.Fatal(err)
		}
		got, err := shards[0].ListSessions()
		if err != nil {
			t.Fatal(err)
		}
		onS0 = len(got.Sessions)
	}

	if err := run(ctx, []string{"migrate", "-router", base}, io.Discard); err == nil {
		t.Error("migrate without -shard accepted")
	}
	var out strings.Builder
	if err := run(ctx, []string{"migrate", "-router", base, "-shard", "s0"}, &out); err != nil {
		t.Fatalf("migrate: %v\n%s", err, out.String())
	}
	moved := 0
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "moved ") {
			moved++
		}
	}
	if moved != onS0 {
		t.Errorf("%d moved lines for %d sessions on s0:\n%s", moved, onS0, out.String())
	}
	if got, err := shards[0].ListSessions(); err != nil || len(got.Sessions) != 0 {
		t.Errorf("s0 after migrate: %+v, %v; want empty", got.Sessions, err)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run after cancel: %v", err)
	}
}
