package engine

import (
	"testing"

	"sirum/internal/metrics"
)

func makeBlocks(nBlocks, rowsPer, dims int) []*TupleBlock {
	blocks := make([]*TupleBlock, nBlocks)
	for b := range blocks {
		tb := &TupleBlock{Start: b * rowsPer}
		tb.Dims = make([][]int32, dims)
		for j := range tb.Dims {
			col := make([]int32, rowsPer)
			for i := range col {
				col[i] = int32(b*rowsPer + i + j)
			}
			tb.Dims[j] = col
		}
		tb.M = make([]float64, rowsPer)
		tb.Mhat = make([]float64, rowsPer)
		for i := range tb.M {
			tb.M[i] = float64(b*rowsPer + i)
			tb.Mhat[i] = 1
		}
		blocks[b] = tb
	}
	return blocks
}

func TestBlockBytes(t *testing.T) {
	b := makeBlocks(1, 100, 3)[0]
	if b.NumRows() != 100 {
		t.Errorf("rows = %d", b.NumRows())
	}
	if got := b.Bytes(); got != 100*3*4+100*16 {
		t.Errorf("Bytes = %d", got)
	}
}

// TestBlockBytesNilMhat is the regression test for the canonical-block
// overcount: prepare-once blocks built by BlocksFromColumns with a nil
// estimate column used to be charged rows*16 for M+Mhat anyway, inflating
// the budget by rows*8 and triggering premature spills.
func TestBlockBytesNilMhat(t *testing.T) {
	dims := [][]int32{make([]int32, 100), make([]int32, 100), make([]int32, 100)}
	m := make([]float64, 100)
	canonical := BlocksFromColumns(dims, m, nil, 1)[0]
	if canonical.Mhat != nil {
		t.Fatal("canonical block unexpectedly has an estimate column")
	}
	if got, want := canonical.Bytes(), int64(100*3*4+100*8); got != want {
		t.Errorf("nil-Mhat Bytes = %d, want %d (no estimate column to charge)", got, want)
	}
	forked := BlocksFromColumns(dims, m, make([]float64, 100), 1)[0]
	if got, want := forked.Bytes(), int64(100*3*4+100*16); got != want {
		t.Errorf("Mhat Bytes = %d, want %d", got, want)
	}

	// A budget that fits the canonical blocks (but not the rows*16
	// overcount) must keep them all resident; under the overcount the same
	// budget spilled. TotalMemory applies a 0.6 storage fraction, so size
	// MemoryPerExecutor to land the budget between the two totals.
	budget := 2*canonical.Bytes() + 100 // < overcounted total of 2*(Bytes+rows*8)
	c := NewSimBackend(Config{Executors: 1, MemoryPerExecutor: int64(float64(budget)/0.6) + 1})
	defer c.Close()
	cd, err := CacheTuples(c, []*TupleBlock{{Start: 0, Dims: canonical.Dims, M: canonical.M}, {Start: 100, Dims: canonical.Dims, M: canonical.M}})
	if err != nil {
		t.Fatal(err)
	}
	if !cd.allResident {
		t.Error("canonical blocks spilled under a budget that fits them: Bytes still overcounts")
	}
}

func TestCacheAllResident(t *testing.T) {
	c := NewSimBackend(Config{Executors: 2, MemoryPerExecutor: 1 << 30})
	defer c.Close()
	blocks := makeBlocks(4, 50, 3)
	cd, err := CacheTuples(c, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if !cd.allResident {
		t.Error("small data should be fully resident")
	}
	for i := 0; i < 4; i++ {
		b, err := cd.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		if b != blocks[i] {
			t.Error("resident path must return the original block")
		}
	}
	if c.Reg().Counter(metrics.CtrSpillBytes) != 0 {
		t.Error("resident cache spilled")
	}
	if cd.ResidentBytes() <= 0 {
		t.Error("resident bytes not tracked")
	}
}

func TestCacheSpillsAndReloads(t *testing.T) {
	blocks := makeBlocks(8, 100, 3)
	perBlock := blocks[0].Bytes()
	// Budget for ~3 blocks (budget = 60% of memory).
	c := NewSimBackend(Config{Executors: 1, MemoryPerExecutor: perBlock * 5})
	defer c.Close()
	cd, err := CacheTuples(c, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if cd.allResident {
		t.Fatal("test requires memory pressure")
	}
	if c.Reg().Counter(metrics.CtrSpillBytes) == 0 {
		t.Error("no spills under memory pressure")
	}
	// Every block must still be readable with correct contents.
	for i := 0; i < 8; i++ {
		b, err := cd.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		if b.Start != i*100 || b.NumRows() != 100 {
			t.Fatalf("block %d corrupted: start=%d rows=%d", i, b.Start, b.NumRows())
		}
		if b.M[0] != float64(i*100) {
			t.Errorf("block %d M[0] = %v", i, b.M[0])
		}
		if b.Dims[2][1] != int32(i*100+1+2) {
			t.Errorf("block %d dims corrupted", i)
		}
		if got := cd.ResidentBytes(); got > c.TotalMemory()+perBlock {
			t.Errorf("after Get(%d) %d bytes resident, more than one block over the %d budget", i, got, c.TotalMemory())
		}
	}
	if c.Reg().Counter(metrics.CtrSpillReads) == 0 {
		t.Error("no reloads recorded")
	}
}

// TestCacheWriteBackPreservesMutations is the dirty-block contract: changes
// to estimate columns survive eviction and reload.
func TestCacheWriteBackPreservesMutations(t *testing.T) {
	blocks := makeBlocks(6, 100, 2)
	perBlock := blocks[0].Bytes()
	c := NewSimBackend(Config{Executors: 1, MemoryPerExecutor: perBlock * 4})
	defer c.Close()
	cd, err := CacheTuples(c, blocks)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate every block's estimates.
	for i := 0; i < 6; i++ {
		b, err := cd.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		for r := range b.Mhat {
			b.Mhat[r] = float64(i) + 0.5
		}
		cd.MarkDirty(i)
	}
	// Cycle through all blocks twice to force evict/reload of each.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 6; i++ {
			b, err := cd.Get(i)
			if err != nil {
				t.Fatal(err)
			}
			if b.Mhat[7] != float64(i)+0.5 {
				t.Fatalf("block %d lost mutation: mhat=%v", i, b.Mhat[7])
			}
		}
	}
}

func TestCacheScan(t *testing.T) {
	c := NewSimBackend(Config{Executors: 2, MemoryPerExecutor: 1 << 30, Partitions: 4})
	defer c.Close()
	blocks := makeBlocks(4, 25, 2)
	cd, err := CacheTuples(c, blocks)
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]float64, 4)
	if err := cd.Scan("sum", false, func(i int, b *TupleBlock) {
		for _, v := range b.M {
			sums[i] += v
		}
	}); err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, s := range sums {
		total += s
	}
	if total != 99*100/2 {
		t.Errorf("scan total = %v", total)
	}
}

func TestBlocksFromColumns(t *testing.T) {
	dims := [][]int32{{1, 2, 3, 4, 5}, {10, 20, 30, 40, 50}}
	m := []float64{1, 2, 3, 4, 5}
	mhat := []float64{1, 1, 1, 1, 1}
	blocks := BlocksFromColumns(dims, m, mhat, 2)
	if len(blocks) != 2 {
		t.Fatalf("blocks = %d", len(blocks))
	}
	if blocks[0].Start != 0 || blocks[1].Start != 3 {
		t.Errorf("starts: %d %d", blocks[0].Start, blocks[1].Start)
	}
	if blocks[1].Dims[1][0] != 40 {
		t.Errorf("block 1 dims: %v", blocks[1].Dims)
	}
	// Blocks alias the input columns until spilled.
	blocks[0].Mhat[0] = 9
	if mhat[0] != 9 {
		t.Error("blocks should alias input before any spill")
	}
	empty := BlocksFromColumns([][]int32{{}}, nil, nil, 3)
	if len(empty) != 1 || empty[0].NumRows() != 0 {
		t.Errorf("empty blocks = %v", empty)
	}
	one := BlocksFromColumns(dims, m, mhat, 100)
	if len(one) != 5 {
		t.Errorf("oversplit blocks = %d", len(one))
	}
}

// TestAcquirePreventsEviction pins a block and verifies concurrent pressure
// cannot evict it mid-mutation.
func TestAcquirePreventsEviction(t *testing.T) {
	blocks := makeBlocks(6, 100, 2)
	perBlock := blocks[0].Bytes()
	c := NewSimBackend(Config{Executors: 1, MemoryPerExecutor: perBlock * 4})
	defer c.Close()
	cd, err := CacheTuples(c, blocks)
	if err != nil {
		t.Fatal(err)
	}
	b0, err := cd.Acquire(0)
	if err != nil {
		t.Fatal(err)
	}
	b0.Mhat[0] = 42
	// Touch every other block to create maximum eviction pressure.
	for round := 0; round < 3; round++ {
		for i := 1; i < 6; i++ {
			if _, err := cd.Get(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The pinned block must still be the same object, mutation intact.
	again, err := cd.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if again != b0 || again.Mhat[0] != 42 {
		t.Error("pinned block was evicted or copied")
	}
	cd.MarkDirty(0)
	cd.Release(0)
	// After release it may be evicted and must round-trip the mutation.
	for round := 0; round < 3; round++ {
		for i := 1; i < 6; i++ {
			if _, err := cd.Get(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	final, err := cd.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if final.Mhat[0] != 42 {
		t.Error("mutation lost after release/evict/reload")
	}
}
