package stats

import (
	"errors"
	"math"
)

// ErrDimension is returned when two vectors passed to a metric differ in
// length or are empty.
var ErrDimension = errors.New("stats: vectors must be non-empty and of equal length")

// Cosine returns the cosine similarity of a and b, the metric the paper
// uses (Table 2) to quantify how well a small-scale error-propagation
// histogram matches the grouped large-scale one.  For the non-negative
// histogram vectors used in the paper the value lies in [0, 1], with 1
// meaning identical direction.
//
// If either vector has zero magnitude the similarity is defined as 0
// (no correlation), except that two zero vectors compare as 1.
func Cosine(a, b []float64) (float64, error) {
	if len(a) == 0 || len(a) != len(b) {
		return 0, ErrDimension
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	switch {
	case na == 0 && nb == 0:
		return 1, nil
	case na == 0 || nb == 0:
		return 0, nil
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb)), nil
}

// RMSE returns the root mean square error between measured and predicted
// values (paper Eq. 9).  The two slices pair element-wise, one element per
// benchmark.
func RMSE(measured, predicted []float64) (float64, error) {
	if len(measured) == 0 || len(measured) != len(predicted) {
		return 0, ErrDimension
	}
	var sum float64
	for i := range measured {
		d := measured[i] - predicted[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(measured))), nil
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}
