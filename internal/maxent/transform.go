package maxent

import (
	"fmt"
	"math"
)

// Transform records the preprocessing of Section 2.2 applied to a measure
// column so that every value is non-negative and the total is non-zero, the
// preconditions of the maximum-entropy formulation. With the all-wildcards
// rule always selected first, a total C ≠ 0 (not necessarily 1) suffices.
type Transform struct {
	Shift float64 // added to every value to remove negatives (−M in the thesis)
	Add   float64 // added to every value when the sum was zero (1/|D|)
	Total float64 // Σ of transformed values (C)
}

// NewTransform derives the transform for the given measure column and
// returns the transformed copy. The input is not modified.
func NewTransform(measure []float64) (Transform, []float64) {
	work := append([]float64(nil), measure...)
	var tr Transform
	minV := math.Inf(1)
	for _, v := range work {
		if v < minV {
			minV = v
		}
	}
	if len(work) > 0 && minV < 0 {
		tr.Shift = -minV
		for i := range work {
			work[i] += tr.Shift
		}
	}
	var sum float64
	for _, v := range work {
		sum += v
	}
	if sum == 0 && len(work) > 0 {
		tr.Add = 1 / float64(len(work))
		for i := range work {
			work[i] += tr.Add
		}
		sum = 1
	}
	tr.Total = sum
	return tr, work
}

// Apply maps an original-scale value to the transformed scale.
func (t Transform) Apply(v float64) float64 { return v + t.Shift + t.Add }

// Invert maps a transformed-scale value back to the original scale.
func (t Transform) Invert(v float64) float64 { return v - t.Shift - t.Add }

// InvertAvg maps a transformed-scale average over n tuples back to the
// original scale; the shift and add constants are per-tuple so averages
// invert the same way as values.
func (t Transform) InvertAvg(avg float64) float64 { return avg - t.Shift - t.Add }

// Validate checks that a transformed column satisfies the preconditions.
func Validate(work []float64) error {
	var sum float64
	for i, v := range work {
		if v < 0 {
			return fmt.Errorf("maxent: transformed measure[%d] = %v is negative", i, v)
		}
		sum += v
	}
	if len(work) > 0 && sum == 0 {
		return fmt.Errorf("maxent: transformed measure sums to zero")
	}
	return nil
}
