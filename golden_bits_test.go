package sirum

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// TestAnswersPinnedToTheBit pins exact float64 bit patterns of Fit, Mine and
// Explore answers on fixed inputs, so a refactor of the scaling kernel or the
// coverage table that shifts any answer by one ulp fails here. Only a change
// that is meant to move bits regenerates these values (the failure message
// prints the new table).
func TestAnswersPinnedToTheBit(t *testing.T) {
	if testing.Short() {
		t.Skip("mines income/3000 three ways")
	}
	ds, err := Generate("income", 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	var names []string
	pin := func(name string, v float64) {
		names = append(names, name)
		got = append(got, math.Float64bits(v))
	}

	// Fit on the 8-rule list of TestFitRepeatsBitForBit.
	mined, err := ds.Mine(Options{K: 8, SampleSize: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rules := make([][]Condition, len(mined.Rules))
	for i, r := range mined.Rules {
		rules[i] = r.Conditions
	}
	_, kl, err := ds.Fit(rules)
	if err != nil {
		t.Fatal(err)
	}
	pin("fit kl", kl)

	// Prepared.Mine through Algorithm 3 (Optimized) and Algorithm 1
	// (Baseline): the KL and every selection-time gain.
	p, err := ds.Prepare(PrepareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, v := range []Variant{VariantOptimized, VariantBaseline} {
		res, err := p.Mine(Options{K: 5, SampleSize: 16, Seed: 2, Variant: v})
		if err != nil {
			t.Fatal(err)
		}
		pin(string(v)+" kl", res.KL)
		for i, r := range res.Rules {
			pin(fmt.Sprintf("%s gain[%d]", v, i), r.Gain)
		}
	}

	// Explore over nine group-bys: a 78-rule prior, so a two-word RCT.
	ex, err := ds.Explore(ExploreOptions{K: 2, GroupBys: 9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Prior) != 78 {
		t.Fatalf("explore prior has %d rules, want 78", len(ex.Prior))
	}
	pin("explore kl", ex.Result.KL)

	// The same own-sample query (|s|=16 seed 2 against the prepared |s|=64
	// seed 1) through the RCT scaler and multi-rule selection.
	for _, v := range []Variant{VariantRCT, VariantMultiRule} {
		res, err := p.Mine(Options{K: 5, SampleSize: 16, Seed: 2, Variant: v})
		if err != nil {
			t.Fatal(err)
		}
		pin(string(v)+" kl", res.KL)
		for i, r := range res.Rules {
			pin(fmt.Sprintf("%s gain[%d]", v, i), r.Gain)
		}
	}

	want := []uint64{
		0x3fe8888c2f2d3e49, // fit kl
		0x3fe8a213850c70cb, // optimized kl
		0x406cf111102c7f09, // optimized gain[0]
		0x40617ff606bc35f9, // optimized gain[1]
		0x4059707f517bb2b1, // optimized gain[2]
		0x40538e4df25285ae, // optimized gain[3]
		0x40432cf134d17d51, // optimized gain[4]
		0x3fe8a213850c70ce, // baseline kl
		0x406cf111102c7f09, // baseline gain[0]
		0x40617ff606bc35ec, // baseline gain[1]
		0x4059707f517bb294, // baseline gain[2]
		0x40538e4df252859c, // baseline gain[3]
		0x40432cf134d17d73, // baseline gain[4]
		0x3fe8137273dd8215, // explore kl
		0x3fe8a213850c70cb, // rct kl
		0x406cf111102c7f09, // rct gain[0]
		0x40617ff606bc35f9, // rct gain[1]
		0x4059707f517bb2b1, // rct gain[2]
		0x40538e4df25285ae, // rct gain[3]
		0x40432cf134d17d51, // rct gain[4]
		0x3fe8a213850c70ce, // multirule kl
		0x406cf111102c7f09, // multirule gain[0]
		0x40617ff606bc35ec, // multirule gain[1]
		0x4059707f517bb294, // multirule gain[2]
		0x40538e4df252859c, // multirule gain[3]
		0x40432cf134d17d73, // multirule gain[4]
	}
	if !slices.Equal(got, want) {
		t.Errorf("answers moved from the %d pinned values; got:", len(want))
		for i := range got {
			t.Errorf("\t%#016x, // %s", got[i], names[i])
		}
	}
}
