package main

import (
	"cmp"
	"fmt"
	"slices"
)

// minBeyond is how many samples must lie above a reported percentile's
// rank: a tail estimate resting on fewer is one or two outliers, not a
// percentile.
const minBeyond = 10

// nearestRank returns the nearest-rank pct-th percentile of sorted (an
// ascending sample): the smallest sample with at least pct% of the
// samples at or below it. It refuses a percentile that leaves fewer than
// minBeyond samples above its rank.
func nearestRank(sorted []float64, pct int) (float64, error) {
	n := len(sorted)
	rank := (pct*n + 99) / 100 // ⌈pct·n/100⌉ in exact integer arithmetic
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%d of %d samples has %d beyond it, want at least %d",
			pct, n, beyond, minBeyond)
	}
	return sorted[rank-1], nil
}

// minSamples is the smallest sample whose pct-th percentile keeps
// minBeyond samples above it.
func minSamples(pct int) int {
	for n := 1; ; n++ {
		if n-(pct*n+99)/100 >= minBeyond {
			return n
		}
	}
}

// blockPercentile splits a per-decision sample, kept in decision order,
// into as many contiguous blocks as leave minBeyond samples past the
// pct-th percentile in each, and returns the nearest-rank median of the
// blocks' nearest-rank percentiles, with the block count. A burst of
// host interference then moves the few blocks it hits, not the tail.
func blockPercentile(sample []float64, pct int) (float64, int, error) {
	n := len(sample)
	blocks := n / minSamples(pct)
	if blocks == 0 {
		return 0, 0, fmt.Errorf("p%d of %d samples: fewer than %d, the least with %d beyond it",
			pct, n, minSamples(pct), minBeyond)
	}
	tails := make([]float64, blocks)
	for k := range tails {
		blk := slices.Clone(sample[k*n/blocks : (k+1)*n/blocks])
		slices.Sort(blk)
		v, err := nearestRank(blk, pct)
		if err != nil {
			return 0, 0, err
		}
		tails[k] = v
	}
	slices.Sort(tails)
	return tails[(blocks+1)/2-1], blocks, nil
}

// interval is a span's extent in trace microseconds, [start, end).
type interval struct{ start, end int64 }

// selfTime is parent's duration minus the part of it that children
// cover. Children may overlap one another (concurrent workers), nest, or
// extend past the parent; each is clipped to the parent and the union of
// what remains is subtracted, so concurrent children are not counted
// twice.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	slices.SortFunc(clipped, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
	var covered int64
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}
