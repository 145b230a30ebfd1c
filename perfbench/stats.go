package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank p-quantile of xs (0 for an empty
// slice, which a metric a workload does not exercise reports). xs is
// not modified. Nearest rank leaves exactly n - ceil(p*n) samples
// beyond the quantile, which is what each tail percentile is chosen by;
// internal/stats keeps the calibration's lower-quantile convention.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
