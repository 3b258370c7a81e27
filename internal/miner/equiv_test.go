package miner

import (
	"fmt"
	"testing"

	"sirum/internal/datagen"
)

// TestPackedStringMinerEquivalenceConcurrent pins the representation switch
// end to end: the same prepared job mined through the packed-key fast path
// and through the string fallback (forced by clearing the internal packer)
// returns identical rule lists and KL. The Concurrent name opts the test
// into the CI race run.
func TestPackedStringMinerEquivalenceConcurrent(t *testing.T) {
	ds := datagen.Income(1200, 17)
	cPacked, cString := testCluster(), testCluster()
	defer cPacked.Close()
	defer cString.Close()

	packed, err := Prepare(cPacked, ds, PrepOptions{SampleSize: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer packed.Drop()
	if packed.packer == nil {
		t.Fatal("income schema should take the packed path")
	}
	str, err := Prepare(cString, ds, PrepOptions{SampleSize: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer str.Drop()
	str.packer = nil // force the string-key fallback

	for _, opt := range []Options{
		{Variant: Optimized, K: 4, SampleSize: 16, Seed: 9},
		{Variant: MultiRule, K: 4, SampleSize: 16, Seed: 9},
		{Variant: Optimized, K: 2, SampleSize: 0, Seed: 9}, // exhaustive explore shape
	} {
		want, err := str.Mine(opt)
		if err != nil {
			t.Fatalf("%v string path: %v", opt.Variant, err)
		}
		got, err := packed.Mine(opt)
		if err != nil {
			t.Fatalf("%v packed path: %v", opt.Variant, err)
		}
		assertSameRules(t, fmt.Sprintf("variant %v", opt.Variant), want, got)
	}
}
