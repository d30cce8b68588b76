package core

import (
	"fmt"

	"resmod/internal/stats"
)

// PropagationSimilarity computes the paper's Table 2 metric: the cosine
// similarity between a small-scale propagation profile (s bins) and the
// large-scale profile grouped into s bins.
func PropagationSimilarity(small, large *stats.Hist) (float64, error) {
	s := small.P()
	grouped, err := large.Group(s)
	if err != nil {
		return 0, fmt.Errorf("core: cannot group %d-rank histogram into %d bins: %w",
			large.P(), s, err)
	}
	return stats.Cosine(small.Probabilities(), grouped)
}

// PredictionError returns |measured - predicted| of the success rate — the
// per-benchmark quantity behind the paper's Figures 5–7.
func PredictionError(measured, predicted stats.Rates) float64 {
	d := measured.Success - predicted.Success
	if d < 0 {
		d = -d
	}
	return d
}
