// Benchmarks regenerating the thesis' tables and figures, one testing.B
// target per experiment id (DESIGN.md §4 maps each to its figure). They run
// the experiment harness in quick mode at a large scale divisor so the whole
// suite finishes in minutes; cmd/sirumbench runs the same experiments at
// full scale.
//
// Benchmark output also reports the key derived metric of each figure
// (speedup factor, pair counts, information gain) so bench logs double as a
// shape record.
package sirum

import (
	"strconv"
	"strings"
	"testing"

	"sirum/internal/experiments"
)

func benchCfg() experiments.Config {
	return experiments.Config{Scale: 50000, Quick: true, Seed: 1, Executors: 4, Cores: 2}
}

// runExperiment executes one experiment per benchmark iteration and reports
// a headline metric extracted from the named column of the first table. The
// experiment harness replays whole evaluation scenarios, so these targets
// are gated behind -short: `go test -short -bench .` runs only the direct
// API benchmarks, which is the CI-friendly tiny-scale subset.
func runExperiment(b *testing.B, id string, metricCol string) {
	b.Helper()
	if testing.Short() {
		b.Skipf("experiment %s skipped in -short mode", id)
	}
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 && metricCol != "" {
			reportColumn(b, tables[0], metricCol)
		}
	}
}

// reportColumn publishes the last row's value of the named column as a
// benchmark metric.
func reportColumn(b *testing.B, t *experiments.Table, col string) {
	b.Helper()
	idx := -1
	for i, h := range t.Header {
		if h == col {
			idx = i
		}
	}
	if idx < 0 || len(t.Rows) == 0 {
		return
	}
	raw := strings.TrimSuffix(t.Rows[len(t.Rows)-1][idx], "x")
	raw = strings.TrimSuffix(raw, "%")
	if v, err := strconv.ParseFloat(raw, 64); err == nil {
		b.ReportMetric(v, col)
	}
}

func BenchmarkTable1_2(b *testing.B) { runExperiment(b, "table-1.2", "") }
func BenchmarkTable4_1(b *testing.B) { runExperiment(b, "table-4.1", "") }
func BenchmarkFig3_1(b *testing.B)   { runExperiment(b, "fig-3.1", "total_s") }
func BenchmarkFig3_2(b *testing.B)   { runExperiment(b, "fig-3.2", "ancestors_%") }
func BenchmarkFig4_3(b *testing.B)   { runExperiment(b, "fig-4.3", "spill_MB") }
func BenchmarkFig4_4(b *testing.B)   { runExperiment(b, "fig-4.4", "total_s") }
func BenchmarkFig5_1(b *testing.B)   { runExperiment(b, "fig-5.1", "sim_s") }
func BenchmarkFig5_2(b *testing.B)   { runExperiment(b, "fig-5.2", "sim_s") }
func BenchmarkFig5_3(b *testing.B)   { runExperiment(b, "fig-5.3", "speedup") }
func BenchmarkFig5_4(b *testing.B)   { runExperiment(b, "fig-5.4", "speedup") }
func BenchmarkFig5_5(b *testing.B)   { runExperiment(b, "fig-5.5", "speedup") }
func BenchmarkFig5_6(b *testing.B)   { runExperiment(b, "fig-5.6", "speedup") }
func BenchmarkFig5_7(b *testing.B)   { runExperiment(b, "fig-5.7", "speedup") }
func BenchmarkFig5_8(b *testing.B)   { runExperiment(b, "fig-5.8", "") }
func BenchmarkFig5_9(b *testing.B)   { runExperiment(b, "fig-5.9", "") }
func BenchmarkFig5_10(b *testing.B)  { runExperiment(b, "fig-5.10", "") }
func BenchmarkFig5_11(b *testing.B)  { runExperiment(b, "fig-5.11", "") }
func BenchmarkFig5_12(b *testing.B)  { runExperiment(b, "fig-5.12", "speedup") }
func BenchmarkFig5_13(b *testing.B)  { runExperiment(b, "fig-5.13", "speedup") }
func BenchmarkFig5_14(b *testing.B)  { runExperiment(b, "fig-5.14", "improvement_%") }
func BenchmarkFig5_15(b *testing.B)  { runExperiment(b, "fig-5.15", "total_s") }
func BenchmarkFig5_16(b *testing.B)  { runExperiment(b, "fig-5.16", "") }
func BenchmarkFig5_17(b *testing.B)  { runExperiment(b, "fig-5.17", "sim_s") }
func BenchmarkFig5_18(b *testing.B)  { runExperiment(b, "fig-5.18", "info_gain_full_data") }
func BenchmarkFig5_19(b *testing.B)  { runExperiment(b, "fig-5.19", "info_gain_full_data") }
func BenchmarkAblationColumnGroups(b *testing.B) {
	runExperiment(b, "ablation-groups", "")
}
func BenchmarkAblationRedundant(b *testing.B) {
	runExperiment(b, "ablation-redundant", "")
}

// reportRowsPerSec publishes dataset-rows-processed-per-second, the common
// throughput unit across the direct mining benchmarks.
func reportRowsPerSec(b *testing.B, rows int) {
	b.Helper()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(rows)*float64(b.N)/s, "rows/s")
	}
}

// BenchmarkMineOptimized benchmarks the public API end to end on a mid-size
// synthetic dataset — the number a downstream user would measure first.
func BenchmarkMineOptimized(b *testing.B) {
	const rows = 5000
	ds, err := Generate("gdelt", rows, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ds.Mine(Options{K: 5, SampleSize: 16, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.InfoGain, "info_gain")
		}
	}
	reportRowsPerSec(b, rows)
}

// benchBackendMine runs one mining job on the given substrate. The sim run
// models the thesis' cluster shape (16 executors × 24 cores → 384
// partitions); the native run executes the same job the way a native user
// gets it — host-tuned partitioning, no virtual-clock list scheduling or
// per-task timing, slice-bucket shuffles, no byte-volume accounting. The
// wall-clock ratio is therefore the end-to-end price of simulating that
// cluster versus just answering the query.
func benchBackendMine(b *testing.B, backend Backend) {
	const rows = 20000
	ds, err := Generate("gdelt", rows, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ds.Mine(Options{
			K: 5, SampleSize: 16, Seed: 2,
			Backend: backend,
			Cluster: Cluster{Executors: 16, CoresPerExecutor: 24},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.InfoGain, "info_gain")
		}
	}
	reportRowsPerSec(b, rows)
}

// BenchmarkMineSimBackend is the simulated-cluster path of the backend
// comparison; BenchmarkMineNativeBackend is the native path of the same job.
func BenchmarkMineSimBackend(b *testing.B)    { benchBackendMine(b, BackendSim) }
func BenchmarkMineNativeBackend(b *testing.B) { benchBackendMine(b, BackendNative) }

// preparedJob is the shared workload of the cold-vs-prepared pair.
func preparedJob() Options { return Options{K: 5, SampleSize: 32, Seed: 2} }

// BenchmarkMineCold is one full cold query on the native backend: substrate
// construction, data load, measure transform, sample draw, and a mining run
// that recomputes candidate pruning every iteration — what every
// Dataset.Mine pays.
func BenchmarkMineCold(b *testing.B) {
	const rows = 20000
	ds, err := Generate("gdelt", rows, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.Mine(preparedJob()); err != nil {
			b.Fatal(err)
		}
	}
	reportRowsPerSec(b, rows)
}

// BenchmarkMinePrepared is the same job as BenchmarkMineCold asked of a
// prepared session (the first warm-up query runs outside the timer): blocks,
// transform, sample, index and the memoized candidate structure are all
// reused, so each iteration measures what the second and later queries of an
// interactive session cost.
func BenchmarkMinePrepared(b *testing.B) {
	const rows = 20000
	ds, err := Generate("gdelt", rows, 1)
	if err != nil {
		b.Fatal(err)
	}
	p, err := ds.Prepare(PrepareOptions{SampleSize: 32, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Mine(preparedJob()); err != nil { // warm: builds the LCA memo
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Mine(preparedJob()); err != nil {
			b.Fatal(err)
		}
	}
	reportRowsPerSec(b, rows)
}

// BenchmarkMineBaseline is the same job on the unoptimized baseline, so the
// two public-API benchmarks show the paper's headline speedup directly.
func BenchmarkMineBaseline(b *testing.B) {
	const rows = 5000
	ds, err := Generate("gdelt", rows, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.Mine(Options{K: 5, SampleSize: 16, Seed: 2, Variant: VariantBaseline}); err != nil {
			b.Fatal(err)
		}
	}
	reportRowsPerSec(b, rows)
}
