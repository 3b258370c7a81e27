package platform

import (
	"testing"

	"sirum/internal/datagen"
	"sirum/internal/engine"
	"sirum/internal/miner"
)

func TestKindString(t *testing.T) {
	if Spark.String() != "Spark" || Hive.String() != "Hive" || Postgres.String() != "PostgreSQL" {
		t.Error("profile names wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind empty")
	}
	if len(Kinds()) != 3 {
		t.Error("Kinds incomplete")
	}
}

func TestConfigShapes(t *testing.T) {
	spark := Config(Spark, 16, 24, 0)
	if spark.ShuffleToDisk || spark.Executors != 16 {
		t.Errorf("spark config %+v", spark)
	}
	hive := Config(Hive, 16, 24, 0)
	if !hive.ShuffleToDisk {
		t.Error("hive must materialize shuffles")
	}
	if hive.JobOverhead <= spark.JobOverhead {
		t.Error("hive job startup must dominate spark's")
	}
	pg := Config(Postgres, 16, 24, 0)
	if pg.Executors != 1 || pg.CoresPerExecutor != 1 {
		t.Errorf("postgres must be single-process: %+v", pg)
	}
	if d := Config(Spark, 0, 0, 0); d.Executors != 16 || d.CoresPerExecutor != 24 {
		t.Errorf("defaults: %+v", d)
	}
}

// TestPlatformOrdering reproduces the shape of Figures 5.1/5.2: for the same
// mining job at the experiment's scale factor, simulated time orders
// Spark < Postgres and Spark < Hive with a wide margin for Hive.
func TestPlatformOrdering(t *testing.T) {
	const rows = 8000
	scale := 1_500_000.0 / rows // the real Income dataset's size ratio
	ds := datagen.Income(rows, 3)
	simFor := func(k Kind) float64 {
		conf := Scale(Config(k, 4, 2, 1<<30), scale)
		// Serialize real task execution so measured durations (and hence
		// the simulated makespans) are stable under host CPU contention.
		conf.RealParallelism = 1
		c := engine.NewSimBackend(conf)
		defer c.Close()
		res, err := miner.New(c, ds, miner.Options{Variant: miner.Baseline, K: 3, SampleSize: 8, Seed: 2}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.SimTime.Seconds()
	}
	spark := simFor(Spark)
	hive := simFor(Hive)
	pg := simFor(Postgres)
	if spark >= pg {
		t.Errorf("spark (%v) not faster than postgres (%v)", spark, pg)
	}
	// At this small test scale the disk-shuffle volume is modest; the full
	// order-of-magnitude gap appears at `sirum exp` scale (fig-5.2). Here a
	// clear 1.5x separation is the invariant.
	if spark*1.5 >= hive {
		t.Errorf("hive (%v) not much slower than spark (%v)", hive, spark)
	}
}

func TestScale(t *testing.T) {
	conf := Config(Spark, 4, 2, 0)
	scaled := Scale(conf, 10)
	if scaled.StageOverhead != conf.StageOverhead/(10*ImplSpeedup) {
		t.Errorf("scaled stage overhead: %v", scaled.StageOverhead)
	}
	if scaled.JobOverhead != conf.JobOverhead/(10*ImplSpeedup) {
		t.Errorf("scaled job overhead: %v", scaled.JobOverhead)
	}
	if scaled.NetBandwidth != conf.NetBandwidth/ImplSpeedup || scaled.DiskBandwidth != conf.DiskBandwidth/ImplSpeedup {
		t.Errorf("scaled bandwidths: %v %v", scaled.NetBandwidth, scaled.DiskBandwidth)
	}
	// Factors below 1 clamp to 1 (the implementation factor still applies).
	clamped := Scale(conf, 0.5)
	if clamped.StageOverhead != conf.StageOverhead/ImplSpeedup {
		t.Errorf("clamped overhead: %v", clamped.StageOverhead)
	}
}
