package main

import (
	"bytes"
	"math/rand"
	"time"

	"sirum"
	"sirum/internal/candgen"
	"sirum/internal/cube"
	"sirum/internal/dataset"
	"sirum/internal/engine"
	"sirum/internal/explore"
	"sirum/internal/maxent"
	"sirum/internal/miner"
	"sirum/internal/rule"
	"sirum/internal/spec"
)

// Probes time one layer's public functions directly, on inputs cut from the
// traced workload's own dataset, so that a per-layer number exists even
// where the public API reports no phase for it. Each probe is a "probe"
// span; its metric is the median over its repetitions.

type prober struct {
	rec    *recorder
	parent int
	out    map[string]float64
}

// run times f repeatedly — at least once, then until a third of a second
// has gone or five repetitions are in — and returns the median in ms.
func (pr *prober) run(name string, f func()) float64 {
	var took []float64
	begin := time.Now()
	for len(took) == 0 || (len(took) < 5 && time.Since(begin) < 300*time.Millisecond) {
		t0 := time.Now()
		f()
		t1 := time.Now()
		took = append(took, ms(t1.Sub(t0)))
		pr.rec.add(pr.parent, "probe", name, t0, t1, nil)
	}
	return median(took)
}

// layerProbes runs the library-level probes on in.
func layerProbes(pr *prober, in probeInput, sz sizes) error {
	t, sampled := in.t, in.sampled
	var ds *dataset.Dataset
	var err error
	pr.out["dataset.generate_ms"] = pr.run("datagen", in.generate)
	pr.run("dataset.Builder", func() { ds, err = t.internal() })
	if err != nil {
		return err
	}
	pub, err := t.public()
	if err != nil {
		return err
	}
	var csv bytes.Buffer
	if err := pub.WriteCSV(&csv); err != nil {
		return err
	}
	pr.out["dataset.csv_read_ms"] = pr.run("sirum.ReadCSV", func() {
		_, err = sirum.ReadCSV(bytes.NewReader(csv.Bytes()), t.measure)
	})
	if err != nil {
		return err
	}

	// engine: load, then everything below runs against the loaded blocks.
	b := engine.NewNativeBackend(engine.Config{})
	defer b.Close()
	_, work := maxent.NewTransform(ds.Measure)
	mhat := make([]float64, len(work))
	for i := range mhat {
		mhat[i] = mean(work)
	}
	var data *engine.CachedData
	pr.out["engine.load_ms"] = pr.run("engine.BlocksFromColumns+CacheTuples", func() {
		blocks := engine.BlocksFromColumns(ds.Dims, work, mhat, b.Config().Partitions)
		data, err = engine.CacheTuples(b, blocks)
	})
	if err != nil {
		return err
	}
	pr.out["miner.prepare_ms"] = pr.run("miner.Prepare", func() {
		var prep *miner.Prep
		if prep, err = miner.Prepare(b, ds, miner.PrepOptions{SampleSize: in.sampleSize, Seed: 1}); err == nil {
			prep.Drop()
		}
	})
	if err != nil {
		return err
	}

	// candgen: sample, index, leaves.
	sample := candgen.DrawSample(ds, rand.New(rand.NewSource(1)), in.sampleSize)
	var ix *candgen.InvertedIndex
	pr.out["candgen.build_index_ms"] = pr.run("candgen.BuildIndex", func() { ix = candgen.BuildIndex(sample) })
	groups := cube.SplitGroups(ds.NumDims(), 2)

	// The table path exists only when the schema packs into 64 bits; where
	// it does not (wide), its probes read 0 and the string probes carry on.
	for _, name := range []string{"candgen.lca_tables_ms", "candgen.topk_ms", "cube.table_add_ns",
		"cube.compute_tables_ms", "engine.shuffle_tables_ms", "rule.pack_ns"} {
		pr.out[name] = 0
	}
	if packer, ok := rule.NewPacker(ds.DomainSizes()); ok {
		pc := candgen.NewPackedCodec(packer)
		leaves := func() (*engine.PColl[*cube.PackedTable], error) {
			if sampled {
				return pc.LCATables(b, data, sample, true, ix)
			}
			return pc.ExhaustiveTables(b, data)
		}
		var lcas *engine.PColl[*cube.PackedTable]
		pr.out["candgen.lca_tables_ms"] = pr.run("candgen.LCATables", func() {
			if lcas != nil {
				cube.ReleaseTables(b, lcas)
			}
			lcas, err = leaves()
		})
		if err != nil {
			return err
		}
		n := ds.NumRows()
		keys := make([]uint64, n)
		codes := make([]int32, ds.NumDims())
		packed := pr.run("rule.PackCodes", func() {
			for i := 0; i < n; i++ {
				row, _ := ds.Row(i, codes)
				keys[i] = packer.PackCodes(row)
			}
		})
		pr.out["rule.pack_ns"] = packed * 1e6 / float64(n)
		added := pr.run("cube.PackedTable.Add", func() {
			tab := cube.BorrowTable(b, n)
			for i, k := range keys {
				tab.Add(k, cube.Agg{SumM: work[i], SumMhat: mhat[i], Count: 1})
			}
			tab.Release(b)
		})
		pr.out["cube.table_add_ns"] = added * 1e6 / float64(n)

		parts := b.Config().Partitions
		dst := make([]*cube.PackedTable, parts)
		for i := range dst {
			dst[i] = cube.BorrowTable(b, 0)
		}
		pr.out["engine.shuffle_tables_ms"] = pr.run("engine.ShuffleTables", func() {
			engine.ShuffleTables[*cube.PackedTable, cube.Agg](b, lcas, "probe/shuffle", dst, cube.TableRecordBytes)
		})
		cube.ReleaseTables(b, engine.NewPColl(dst))
		var cands *engine.PColl[*cube.PackedTable]
		pr.out["cube.compute_tables_ms"] = pr.run("cube.ComputeTables", func() {
			if cands != nil {
				cube.ReleaseTables(b, cands)
			}
			cands, err = cube.ComputeTables(b, lcas, pc.PackedKeys, groups)
		})
		if err != nil {
			return err
		}
		pr.out["candgen.topk_ms"] = pr.run("candgen.TopByGainTables", func() {
			candgen.TopByGainTables(b, cands, 1024, nil)
		})
		cube.ReleaseTables(b, cands)
		cube.ReleaseTables(b, lcas)
	}

	// The string-key path, which every schema can take and wide must.
	var strLeaves *engine.PColl[map[string]cube.Agg]
	pr.run("candgen.LCAParts(string)", func() {
		if sampled {
			strLeaves, err = candgen.LCAParts(b, data, sample, true, ix)
		} else {
			strLeaves, err = candgen.ExhaustiveParts(b, data)
		}
	})
	if err != nil {
		return err
	}
	pr.out["cube.compute_string_ms"] = pr.run("cube.Compute", func() {
		_, err = cube.Compute(b, strLeaves, ds.NumDims(), groups)
	})
	if err != nil {
		return err
	}

	// maxent: a scaler taking the prior an exploration would seed.
	prior := explore.PriorKnowledge(ds, in.priorGroups)
	pr.out["maxent.rct_add_rule_ms"] = pr.run("maxent.RCTScaler.AddRule×prior", func() {
		s := maxent.NewRCTScaler(ds, work, len(prior)+1)
		if _, err = s.AddRule(rule.AllWildcards(ds.NumDims())); err != nil {
			return
		}
		for _, r := range prior {
			if _, err = s.AddRule(r); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}

	// spec: what a request pays to be named before the cache is consulted.
	const fps = 1000
	fp := pr.run("spec.Canonical+Fingerprint+SessionKey", func() {
		for i := 0; i < fps; i++ {
			q, _ := sirum.Options{K: 3 + i%8}.Canonical(len(t.rows))
			q.Fingerprint()
			spec.SessionKey(spec.DatasetSpec{Version: spec.Version, Epoch: int64(i)}, spec.PrepSpec{Version: spec.Version})
		}
	})
	pr.out["spec.fingerprint_us"] = fp * 1e3 / fps
	return nil
}

// sessionProbes time the public session API end to end: Prepare, the first
// query (which loads blocks and builds index and memo), a cold Mine, and
// Append over batches — the library-level cost the HTTP append sits on.
func sessionProbes(pr *prober, t *table, batches []*table, sampleSize int) error {
	pub, err := t.public()
	if err != nil {
		return err
	}
	opt := sirum.Options{K: 3, SampleSize: sampleSize, Seed: 1}
	var p *sirum.Prepared
	first := 0.0
	pr.out["sirum.prepare_ms"] = pr.run("sirum.Prepare", func() {
		if p != nil {
			p.Close()
		}
		if p, err = pub.Prepare(sirum.PrepareOptions{SampleSize: sampleSize, Seed: 1}); err != nil {
			return
		}
		t0 := time.Now()
		_, err = p.Mine(opt)
		first = ms(time.Since(t0))
	})
	if err != nil {
		return err
	}
	defer p.Close()
	pr.out["sirum.first_query_ms"] = first
	pr.out["sirum.cold_mine_ms"] = pr.run("sirum.Dataset.Mine", func() { _, err = pub.Mine(opt) })
	if err != nil {
		return err
	}
	// A session's first append always re-mines (nothing is maintained yet);
	// as in the serving set-up, that one is not counted.
	var took []float64
	remined := 0
	for i, batch := range batches {
		bds, err := batch.public()
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := p.Append(bds, opt)
		t1 := time.Now()
		if err != nil {
			return err
		}
		if i == 0 {
			continue
		}
		pr.rec.add(pr.parent, "probe", "sirum.Prepared.Append", t0, t1, nil)
		took = append(took, ms(t1.Sub(t0)))
		if res.Remined {
			remined++
		}
	}
	pr.out["sirum.append_ms_per_op"] = mean(took)
	pr.out["sirum.append_remine_share"] = ratio(float64(remined), float64(len(took)))
	return nil
}
