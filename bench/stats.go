package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics. xs is sorted in place; an empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// bestMean is the mean of the k best of xs but the very best: the highest
// when higher is better, else the lowest.
func bestMean(xs []float64, k int, higher bool) float64 {
	xs = append([]float64{}, xs...)
	sort.Float64s(xs)
	if higher {
		for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
			xs[i], xs[j] = xs[j], xs[i]
		}
	}
	k = min(k, len(xs))
	if k > 1 {
		return mean(xs[1:k])
	}
	return mean(xs[:k])
}

// midMean is the mean of the middle half of xs.
func midMean(xs []float64) float64 {
	xs = append([]float64{}, xs...)
	sort.Float64s(xs)
	cut := len(xs) / 4
	return mean(xs[cut : len(xs)-cut])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geomean is the geometric mean of strictly positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio is a/b, 0 when b is 0 — for per-op counters of phases that ran no op.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// FNV-1a, 64 bit, written out so a response body can be hashed in chunks
// without allocating a hash.Hash per request.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvAdd(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

func fnvAddString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}
