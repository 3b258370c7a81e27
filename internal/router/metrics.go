package router

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// handleMetrics serves the cluster rollup: the router's own gauges and
// counters first, then every healthy shard's /v1/metrics document merged
// into one — un-labelled samples of the same family summed across shards
// (total sessions, total cache hits, ...), labelled samples re-emitted
// with a shard label injected so per-session series stay attributable.
// Families keep their first-seen HELP/TYPE text and order.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	var b strings.Builder
	gauge := func(name, help string, v any, labels string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s%s %v\n", name, help, name, name, labels, v)
	}
	up, sessions := rt.counts()
	gauge("sirumr_shards", "Shards in the configured topology.", len(rt.shards), "")
	gauge("sirumr_shards_up", "Shards currently passing health checks.", up, "")
	gauge("sirumr_sessions", "Sessions in the routing table across all shards.", sessions, "")
	fmt.Fprintf(&b, "# HELP sirumr_proxied_total Requests relayed to a shard.\n# TYPE sirumr_proxied_total counter\nsirumr_proxied_total %d\n", rt.proxied.Load())
	fmt.Fprintf(&b, "# HELP sirumr_proxy_errors_total Transport failures reaching a shard.\n# TYPE sirumr_proxy_errors_total counter\nsirumr_proxy_errors_total %d\n", rt.proxyErrs.Load())
	fmt.Fprintf(&b, "# HELP sirumr_shard_up Per-shard health (1 up, 0 down).\n# TYPE sirumr_shard_up gauge\n")
	for _, sh := range rt.shards {
		v := 1
		if sh.down.Load() {
			v = 0
		}
		fmt.Fprintf(&b, "sirumr_shard_up{shard=%q} %d\n", sh.label(), v)
	}
	fmt.Fprintf(&b, "# HELP sirumr_shard_sessions Sessions last observed per shard.\n# TYPE sirumr_shard_sessions gauge\n")
	for _, sh := range rt.shards {
		fmt.Fprintf(&b, "sirumr_shard_sessions{shard=%q} %d\n", sh.label(), sh.sessions.Load())
	}

	// Pull the healthy shards' documents concurrently, then merge in
	// topology order so the rollup is deterministic for a fixed cluster
	// state.
	docs := make([]string, len(rt.shards))
	var wg sync.WaitGroup
	for i, sh := range rt.shards {
		if sh.down.Load() {
			continue
		}
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			if text, err := sh.client.MetricsText(); err == nil {
				docs[i] = text
			}
		}(i, sh)
	}
	wg.Wait()
	labels := make([]string, len(rt.shards))
	for i, sh := range rt.shards {
		labels[i] = sh.label()
	}
	mergeMetrics(&b, docs, labels)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, err := w.Write([]byte(b.String()))
	return err
}

// family accumulates one metric family across shard documents.
type family struct {
	name    string
	help    string // first-seen HELP line, verbatim
	typ     string // first-seen TYPE line, verbatim
	sum     float64
	scalar  bool     // saw at least one un-labelled sample to sum
	labeled []string // rewritten labelled samples, in arrival order
}

// mergeMetrics folds shard metric documents into b. docs[i] belongs to the
// shard labelled labels[i]; empty docs (down or unreadable shards) are
// skipped.
func mergeMetrics(b *strings.Builder, docs, labels []string) {
	var order []string
	families := map[string]*family{}
	get := func(name string) *family {
		f, ok := families[name]
		if !ok {
			f = &family{name: name}
			families[name] = f
			order = append(order, name)
		}
		return f
	}
	for i, doc := range docs {
		for _, line := range strings.Split(doc, "\n") {
			if line == "" {
				continue
			}
			if strings.HasPrefix(line, "#") {
				fields := strings.SplitN(line, " ", 4)
				if len(fields) < 3 {
					continue
				}
				f := get(fields[2])
				switch fields[1] {
				case "HELP":
					if f.help == "" {
						f.help = line
					}
				case "TYPE":
					if f.typ == "" {
						f.typ = line
					}
				}
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			if sp <= 0 {
				continue
			}
			series, valText := line[:sp], line[sp+1:]
			val, err := strconv.ParseFloat(valText, 64)
			if err != nil {
				continue
			}
			if brace := strings.IndexByte(series, '{'); brace >= 0 {
				f := get(series[:brace])
				f.labeled = append(f.labeled, fmt.Sprintf("%s{shard=%q,%s %s",
					series[:brace], labels[i], series[brace+1:], valText))
			} else {
				f := get(series)
				f.scalar = true
				f.sum += val
			}
		}
	}
	for _, name := range order {
		f := families[name]
		if f.help != "" {
			fmt.Fprintln(b, f.help)
		}
		if f.typ != "" {
			fmt.Fprintln(b, f.typ)
		}
		if f.scalar {
			fmt.Fprintf(b, "%s %g\n", f.name, f.sum)
		}
		for _, line := range f.labeled {
			fmt.Fprintln(b, line)
		}
	}
}
