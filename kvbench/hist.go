package main

import (
	"math/bits"
	"time"
)

// hist is a fixed-size log-linear latency histogram: 64 linear
// sub-buckets per power of two of nanoseconds, so a bucket is at most
// 1.6 % wide. Recording allocates nothing and a hist belongs to one
// goroutine; merging happens after the goroutines have joined.
type hist struct {
	counts [histExps * histSub]uint32
	n      uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histExps    = 40 - histSubBits // up to 2^40 ns, about 18 minutes
)

func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - histSubBits // >= 1
	sub := int(ns>>uint(e-1)) - histSub       // 0..histSub-1
	i := e*histSub + sub
	if i >= len(hist{}.counts) {
		i = len(hist{}.counts) - 1
	}
	return i
}

// histLower reports the smallest value that lands in bucket i, and the
// bucket's width.
func histLower(i int) (lo, width float64) {
	e, sub := i/histSub, i%histSub
	if e == 0 {
		return float64(sub), 1
	}
	w := float64(uint64(1) << uint(e-1))
	return float64(histSub+sub) * w, w
}

func (h *hist) record(d time.Duration) {
	h.counts[histIndex(int64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile reports the q-quantile (0 < q < 1) in microseconds,
// interpolating linearly by rank inside the bucket that holds it, so
// the estimate moves continuously with the data instead of snapping to
// bucket edges.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, w := histLower(i)
			return (lo + w*(rank-seen)/float64(c)) / 1e3
		}
		seen += float64(c)
	}
	lo, w := histLower(len(h.counts) - 1)
	return (lo + w) / 1e3
}
