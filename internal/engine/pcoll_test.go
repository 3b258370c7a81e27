package engine

import "testing"

// TestShuffleByKeyMergeCorrectness shuffles overlapping keys through a
// many-to-few exchange and checks full merge plus key disjointness.
func TestShuffleByKeyMergeCorrectness(t *testing.T) {
	c := NewSimBackend(testConfig())
	defer c.Close()
	in := make([]map[string]int, 6)
	want := map[string]int{}
	for i := range in {
		in[i] = map[string]int{}
		for j := 0; j < 40; j++ {
			k := string(rune('a' + (i+j)%13))
			in[i][k] += j
			want[k] += j
		}
	}
	out := ShuffleByKey(c, NewPColl(in), "shuffle", 3, func(a, b int) int { return a + b },
		func(k string, _ int) int { return len(k) + 8 })
	if out.NumParts() != 3 {
		t.Fatalf("out parts = %d", out.NumParts())
	}
	got := map[string]int{}
	for _, p := range out.Parts() {
		for k, v := range p {
			if _, dup := got[k]; dup {
				t.Errorf("key %q lives in multiple output partitions", k)
			}
			got[k] = v
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("key %q = %d, want %d", k, got[k], v)
		}
	}
}

// TestHashKeyIntWidthsAgree: the same non-negative logical key must route to
// the same partition regardless of which integer width produced it.
func TestHashKeyIntWidthsAgree(t *testing.T) {
	for _, v := range []int{0, 1, 7, 42, 1 << 20} {
		h := hashKey(v)
		if hashKey(int32(v)) != h {
			t.Errorf("hashKey(int32(%d)) != hashKey(int(%d))", v, v)
		}
		if hashKey(int64(v)) != h {
			t.Errorf("hashKey(int64(%d)) != hashKey(int(%d))", v, v)
		}
		if hashKey(uint64(v)) != h {
			t.Errorf("hashKey(uint64(%d)) != hashKey(int(%d))", v, v)
		}
	}
	// Distinct keys spread.
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[hashKey(i)] = true
	}
	if len(seen) < 990 {
		t.Errorf("integer hash collides heavily: %d distinct of 1000", len(seen))
	}
}
