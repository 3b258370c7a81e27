// Command sirumd serves informative rule mining over HTTP: a registry of
// named prepared sessions (create from CSV or the built-in synthetic
// generators), each answering concurrent mine/explore queries and streaming
// appends, with admission control bounding in-flight work, an epoch-keyed
// result cache making repeat queries near-free, and optional snapshot
// persistence so a restarted daemon comes back serving.
//
// Usage:
//
//	sirumd [-addr :8080] [-inflight 16] [-cache 256] [-snapshot dir]
//	       [-nofsync] [-shard-id s0] [-advertise http://host:8080]
//
// -shard-id and -advertise put the daemon in shard mode under a sirumr
// router: the id labels the shard in health checks and metrics, and the
// advertise address tells the cluster where to reach this daemon. A shard
// run with -snapshot can be killed and restarted in place; the router
// marks it down meanwhile and its sessions resume at their prior epochs.
//
// Endpoints:
//
//	POST   /v1/datasets             {"id":"d1","generator":{"name":"income","rows":5000}}
//	GET    /v1/datasets             list sessions
//	GET    /v1/datasets/{id}        session info + lifetime stats
//	DELETE /v1/datasets/{id}        close a session
//	POST   /v1/datasets/{id}/mine   {"k":5,"sample_size":16}
//	POST   /v1/datasets/{id}/explore {"k":4,"group_bys":2}
//	POST   /v1/datasets/{id}/append {"rows":[{"dims":[...],"measure":1.5}]}
//	GET    /v1/datasets/{id}/export migration document: manifest + data + journal
//	POST   /v1/datasets/import      rebuild a session from an export document
//	GET    /v1/metrics              Prometheus-style text metrics
//	GET    /v1/healthz
//
// The daemon prints the address it bound (so -addr 127.0.0.1:0 works) and
// serves until SIGINT or SIGTERM, then drains. Its end-to-end checks live
// in the server suite (internal/server) and in the serve workload of
// go run ./benchmark.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"sirum/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sirumd:", err)
		os.Exit(1)
	}
}

// run parses args and serves until ctx is done.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sirumd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	inflight := fs.Int("inflight", 0, "max concurrently executing queries (0 = 2x cores); excess requests queue")
	cache := fs.Int("cache", 0, "result cache entries (0 = 256 default, negative disables)")
	snapshot := fs.String("snapshot", "", "session persistence directory: journal the registry and restore it on boot (empty disables)")
	nofsync := fs.Bool("nofsync", false, "skip fsync on snapshot writes: faster, but a crash can lose acknowledged appends (benchmarks and tests only)")
	shardID := fs.String("shard-id", "", "logical shard name reported to routers via /v1/healthz and /v1/metrics (empty = standalone)")
	advertise := fs.String("advertise", "", "address other nodes reach this daemon at, if it differs from -addr")
	if err := fs.Parse(args); err != nil {
		return err
	}

	conf := server.Config{
		MaxInFlight: *inflight, CacheEntries: *cache, SnapshotDir: *snapshot,
		ShardID: *shardID, Advertise: *advertise, NoFsync: *nofsync,
	}
	srv := server.New(conf)
	if conf.SnapshotDir != "" {
		n, err := srv.Restore()
		if err != nil {
			srv.Close()
			return fmt.Errorf("restoring snapshot: %w", err)
		}
		fmt.Fprintf(out, "sirumd restored %d sessions from %s\n", n, conf.SnapshotDir)
	}
	return server.Serve(ctx, out, "sirumd", *addr, srv.Handler(), srv.Close)
}
