package miner

import (
	"testing"

	"sirum/internal/candgen"
	"sirum/internal/cube"
	"sirum/internal/datagen"
	"sirum/internal/engine"
	"sirum/internal/stats"
)

// memoBenchFork prepares income/50000 and forks its blocks once, with a
// pruning sample of 64 tuples and its index: the space a fresh-sample query
// of the benchmark's mine workload builds its leaf memo over.
func memoBenchFork(b *testing.B) (engine.Backend, *engine.CachedData, candgen.PackedCodec, *candgen.Sample, *candgen.InvertedIndex) {
	b.Helper()
	c := engine.NewNativeBackend(engine.Config{})
	b.Cleanup(func() { c.Close() })
	ds := datagen.Income(50000, 1)
	p, err := Prepare(c, ds, PrepOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(p.Drop)
	data, err := p.fork(c)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(data.Drop)
	s := candgen.DrawSample(ds, stats.NewRand(2), 64)
	return c, data, candgen.NewPackedCodec(p.packer), s, candgen.BuildIndex(s)
}

// BenchmarkBuildLCAMemo is the one pass that builds a query's leaf memo:
// every row's 64 LCAs, keyed and inverted into per-key row lists.
func BenchmarkBuildLCAMemo(b *testing.B) {
	c, data, pc, s, ix := memoBenchFork(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := buildLCAMemo(c, data, s, ix, pc.ForEachLeafKey); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLCATablesPass is one per-round indexed LCA pass over the same
// fork and sample: what every round of an own-sample query paid before it
// had a memo.
func BenchmarkLCATablesPass(b *testing.B) {
	c, data, pc, s, ix := memoBenchFork(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lcas, err := pc.LCATables(c, data, s, true, ix)
		if err != nil {
			b.Fatal(err)
		}
		cube.ReleaseTables(c, lcas)
	}
}
