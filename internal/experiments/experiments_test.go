package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// quickCfg shrinks everything so the whole registry can run in CI time.
func quickCfg() Config {
	return Config{Scale: 50000, Quick: true, Seed: 1, Executors: 4, Cores: 2}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig-3.1", "fig-3.2", "fig-4.3", "fig-4.4",
		"fig-5.1", "fig-5.2", "fig-5.3", "fig-5.4", "fig-5.5", "fig-5.6",
		"fig-5.7", "fig-5.8", "fig-5.9", "fig-5.10", "fig-5.11", "fig-5.12",
		"fig-5.13", "fig-5.14", "fig-5.15", "fig-5.16", "fig-5.17",
		"fig-5.18", "fig-5.19",
		"table-1.2", "table-4.1",
		"ablation-groups", "ablation-redundant",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(All()) != len(want) {
		ids := make([]string, 0, len(All()))
		for _, r := range All() {
			ids = append(ids, r.ID)
		}
		t.Errorf("registry has %d experiments, want %d: %v", len(All()), len(want), ids)
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("fig-99", quickCfg()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Header: []string{"a", "bbbb"}, Notes: []string{"note text"}}
	tab.AddRow("1", "2")
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	for _, want := range []string{"== x: demo ==", "a", "bbbb", "note text", "1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestConfigHelpers(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Scale != 1000 || cfg.Executors != 16 {
		t.Errorf("defaults: %+v", cfg)
	}
	if cfg.rows(1_500_000) != 1500 {
		t.Errorf("rows = %d", cfg.rows(1_500_000))
	}
	if cfg.rows(1000) != 300 {
		t.Errorf("rows floor = %d", cfg.rows(1000))
	}
	q := Config{Scale: 1000, Quick: true}.withDefaults()
	if q.k(20) != 10 || q.s(64) != 16 || q.k(5) != 5 || q.s(16) != 4 || q.s(4) != 4 {
		t.Errorf("quick shrink: k=%d s64=%d s16=%d s4=%d", q.k(20), q.s(64), q.s(16), q.s(4))
	}
}

// TestTable12Golden runs the flight-data experiment and checks the exact
// Table 1.2 contents.
func TestTable12Golden(t *testing.T) {
	tabs, err := Run("table-1.2", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	wantRules := [][]string{
		{"*", "*", "*"},
		{"*", "*", "London"},
		{"Fri", "*", "*"},
		{"Sat", "*", "*"},
	}
	for i, w := range wantRules {
		got := tab.Rows[i][1:4]
		for j := range w {
			if got[j] != w[j] {
				t.Errorf("row %d = %v, want %v", i, got, w)
			}
		}
	}
	// Aggregates at the thesis' rounding.
	if tab.Rows[0][4] != "10.4" || tab.Rows[1][4] != "15.2" && tab.Rows[1][4] != "15.3" {
		t.Errorf("averages: %v %v", tab.Rows[0][4], tab.Rows[1][4])
	}
}

// TestTable41Golden checks the RCT contents and their order, which is the
// thesis' (1000, 1100, 1010, 1110) on every run, not Go map order.
func TestTable41Golden(t *testing.T) {
	want := [][]string{
		{"100", "9", "68"},
		{"110", "3", "41"},
		{"101", "1", "16"},
		{"111", "1", "20"},
	}
	for run := 0; run < 5; run++ {
		tabs, err := Run("table-4.1", quickCfg())
		if err != nil {
			t.Fatal(err)
		}
		tab := tabs[0]
		if len(tab.Rows) != len(want) {
			t.Fatalf("rows = %d, want %d", len(tab.Rows), len(want))
		}
		for i, row := range tab.Rows {
			if row[0] != want[i][0] || row[1] != want[i][1] || row[2] != want[i][2] {
				t.Errorf("run %d row %d: got %v, want %v", run, i, row[:3], want[i])
			}
		}
	}
}

// TestSelectedExperimentsRun smoke-tests a representative subset end to end
// at tiny scale; the full registry is exercised by `sirum exp` and the
// benchmarks.
func TestSelectedExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	cfg := quickCfg()
	for _, id := range []string{"fig-3.1", "fig-5.3", "fig-5.5", "fig-5.11", "fig-5.16", "fig-5.19", "ablation-groups"} {
		tabs, err := Run(id, cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tabs) == 0 || len(tabs[0].Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
		for _, tab := range tabs {
			for _, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Errorf("%s: row width %d != header %d", id, len(row), len(tab.Header))
				}
			}
		}
	}
}

// TestSimulatedShapes keeps a priced simulation in -short runs: fig-5.2's
// Hive profile pays job startup and disk-materialized shuffles, and fig-4.3's
// scarce-memory run spills and reloads cache blocks, so between them every
// count the simulated clock prices is exercised (jobs, shuffles to disk,
// broadcasts, disk reads, spills and reloads).
func TestSimulatedShapes(t *testing.T) {
	cfg := quickCfg()
	cell := func(tab *Table, row, col int) float64 {
		t.Helper()
		f, err := strconv.ParseFloat(strings.TrimSuffix(tab.Rows[row][col], "x"), 64)
		if err != nil {
			t.Fatalf("%s: bad cell %q", tab.ID, tab.Rows[row][col])
		}
		return f
	}
	tabs, err := Run("fig-5.2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	spark, hive := cell(tabs[0], 0, 1), cell(tabs[0], 1, 1)
	if hive < 2*spark {
		t.Errorf("fig-5.2: Hive %.3fs is not at least 2x Spark %.3fs", hive, spark)
	}
	if tabs, err = Run("fig-4.3", cfg); err != nil {
		t.Fatal(err)
	}
	const spillCol, reloadCol, timeCol = 2, 3, 4
	plenty, scarce := 0, 1
	if got := cell(tabs[0], plenty, spillCol); got != 0 {
		t.Errorf("fig-4.3: plentiful memory spilled %.2f MB", got)
	}
	if cell(tabs[0], scarce, spillCol) <= 0 || cell(tabs[0], scarce, reloadCol) <= 0 {
		t.Errorf("fig-4.3: scarce memory did not spill and reload: %v", tabs[0].Rows[scarce])
	}
	if fast, slow := cell(tabs[0], plenty, timeCol), cell(tabs[0], scarce, timeCol); slow <= 5*fast {
		t.Errorf("fig-4.3: scarce run %.3fs is not more than 5x the plentiful %.3fs", slow, fast)
	}
}

// TestSpeedupShapes verifies the headline claims at small scale: RCT faster
// than baseline scaling, and Optimized faster than Baseline end to end.
func TestSpeedupShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	cfg := quickCfg()
	tabs, err := Run("fig-5.3", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tabs[0].Rows {
		sp := strings.TrimSuffix(row[3], "x")
		f, err := strconv.ParseFloat(sp, 64)
		if err != nil {
			t.Fatalf("bad speedup cell %q", row[3])
		}
		if f <= 1 {
			t.Errorf("RCT speedup %v <= 1 at k=%s", f, row[0])
		}
	}
}
