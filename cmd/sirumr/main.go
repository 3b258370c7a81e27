// Command sirumr is the sharding router for a multi-node sirumd cluster:
// it serves the exact /v1 API of one daemon while placing every session on
// one of N shard daemons by consistent hashing over the session's
// canonical spec fingerprint (auto-id sessions hash their assigned id, so
// identical anonymous specs still spread). Health checks mark shards down
// and back up; a down shard's sessions answer clean 502/503 JSON errors
// while every other shard serves unimpeded.
//
// Usage:
//
//	sirumr -shards http://h1:8080,http://h2:8080 [-addr :8090]
//	       [-replicas 128] [-health 2s] [-timeout 2m]
//	sirumr migrate -shard s1 [-router http://127.0.0.1:8090] [-timeout 10m]
//
// Cluster endpoints on top of the proxied /v1 surface:
//
//	GET  /v1/shards                    topology with health and session counts
//	POST /v1/shards/{id}/drain         stop placing new sessions on a shard
//	POST /v1/shards/{id}/undrain       resume placements
//	POST /v1/shards/{id}/migrate       drain a shard and move its sessions off
//	GET  /v1/datasets/{id}/export      a session's migration document
//	GET  /v1/metrics                   cluster rollup of every shard's metrics
//	GET  /v1/healthz                   ok | degraded | down
//
// The migrate subcommand drives POST /v1/shards/{id}/migrate against a
// running router and prints each moved session with its verified
// fingerprint and epoch; it exits non-zero while any session remains on
// the origin (re-run to resume — migration is idempotent).
//
// The order of -shards is the cluster's identity: placement hashes shard
// positions, so keep the list stable across router restarts.
//
// Each -shards entry must be an absolute http or https URL; surrounding
// spaces are trimmed. The router prints the address it bound and serves
// until SIGINT or SIGTERM. Its end-to-end checks live in the router suite
// (internal/router) and in the route workload of go run ./benchmark.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sirum/internal/router"
	"sirum/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sirumr:", err)
		os.Exit(1)
	}
}

// run parses args and either serves the router until ctx is done or runs
// the migrate subcommand.
func run(ctx context.Context, args []string, out io.Writer) error {
	if len(args) > 0 && args[0] == "migrate" {
		return runMigrate(args[1:], out)
	}
	fs := flag.NewFlagSet("sirumr", flag.ContinueOnError)
	addr := fs.String("addr", ":8090", "listen address")
	shards := fs.String("shards", "", "comma-separated shard base URLs, in stable topology order")
	replicas := fs.Int("replicas", 0, "virtual ring points per shard (0 = 128)")
	health := fs.Duration("health", 0, "health-check interval (0 = 2s)")
	timeout := fs.Duration("timeout", 0, "per-request proxy timeout (0 = 2m)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards == "" {
		return errors.New("-shards is required (comma-separated shard URLs)")
	}
	bases := strings.Split(*shards, ",")
	for i := range bases {
		bases[i] = strings.TrimSpace(bases[i])
	}
	rt, err := router.New(router.Config{
		Shards:         bases,
		Replicas:       *replicas,
		HealthInterval: *health,
		Timeout:        *timeout,
	})
	if err != nil {
		return err
	}
	rt.Start()
	return server.Serve(ctx, out, "sirumr", *addr, rt.Handler(), rt.Close)
}

// runMigrate drives POST /v1/shards/{id}/migrate against a running router:
// the operator-facing half of decommissioning a shard.
func runMigrate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sirumr migrate", flag.ContinueOnError)
	routerURL := fs.String("router", "http://127.0.0.1:8090", "router base URL")
	shardID := fs.String("shard", "", "logical shard id to drain and empty (see GET /v1/shards)")
	timeout := fs.Duration("timeout", 10*time.Minute, "overall request timeout (every session re-prepares on its destination)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shardID == "" {
		return errors.New("-shard is required (a logical shard id from GET /v1/shards)")
	}
	c := &server.Client{BaseURL: strings.TrimRight(*routerURL, "/"), HTTP: &http.Client{Timeout: *timeout}}
	var resp router.MigrateResponse
	if err := c.Do("POST", "/v1/shards/"+*shardID+"/migrate", nil, &resp); err != nil {
		return err
	}
	for _, m := range resp.Moved {
		note := ""
		if m.Resumed {
			note = " (resumed)"
		}
		fmt.Fprintf(out, "moved %s: %s -> %s fingerprint=%s epoch=%d%s\n", m.ID, m.From, m.To, m.Fingerprint, m.Epoch, note)
	}
	for _, f := range resp.Failed {
		fmt.Fprintf(out, "failed %s: %s\n", f.ID, f.Error)
	}
	fmt.Fprintf(out, "shard %s: %d moved, %d remaining (draining=%v)\n", resp.Shard, len(resp.Moved), resp.Remaining, resp.Draining)
	if resp.Remaining > 0 {
		return fmt.Errorf("%d sessions still on shard %s; re-run migrate to resume", resp.Remaining, resp.Shard)
	}
	return nil
}
