package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of sorted by linear interpolation between
// closest ranks; 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// reportedPercentiles are the candidates for "the highest percentile the
// sample supports", highest first.
var reportedPercentiles = []float64{99.9, 99, 95, 90, 75}

// highPercentile applies the measurement rule: alongside the median, report
// the highest percentile that still has at least ten samples beyond it.
// It returns that percentile (0 when even p75 is unsupported, i.e. n < 40)
// and its value.
func highPercentile(v []float64) (pct, value float64) {
	for _, p := range reportedPercentiles {
		// In thousandths, so that 0.1% of 10000 is exactly ten.
		if len(v)*int(math.Round((100-p)*10)) >= 10*1000 {
			return p, quantile(sortedCopy(v), p/100)
		}
	}
	return 0, 0
}
