package data

import (
	"math"
	"sort"
)

// Summary is the memoized one-pass statistics bundle of a column: the
// missing-cell count, the sorted distinct value set, and (for numeric
// kinds) the full Stats plus the sorted non-missing values that quantile
// queries interpolate over. It is computed once per column mutation
// generation by Column.Summary and shared by every caller, which turns the
// profiler's repeated Distinct/MissingCount/NumericStats calls — formerly
// a full column scan each — into pointer loads.
//
// A Summary is immutable after construction. Callers must treat every
// field, including the Distinct slice, as read-only: the same instance is
// handed to concurrent profiler workers.
type Summary struct {
	// Rows is the total cell count at computation time.
	Rows int
	// Missing is the number of missing cells.
	Missing int
	// Distinct holds the distinct non-missing values rendered as strings,
	// sorted ascending. Shared — do not modify.
	Distinct []string
	// Stats summarizes the numeric values (zero for string columns).
	Stats Stats

	distinctSet map[string]struct{}
	sortedNums  []float64 // ascending non-missing values, numeric only
}

// DistinctCount returns the number of distinct non-missing values.
func (s *Summary) DistinctCount() int { return len(s.Distinct) }

// Present returns the number of non-missing cells.
func (s *Summary) Present() int { return s.Rows - s.Missing }

// Contains reports whether v is one of the distinct non-missing values.
func (s *Summary) Contains(v string) bool {
	_, ok := s.distinctSet[v]
	return ok
}

// Quantile interpolates the q-quantile of the non-missing numeric values,
// or NaN for string/empty columns (same contract as Column.Quantile).
func (s *Summary) Quantile(q float64) float64 {
	if len(s.sortedNums) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s.sortedNums[0]
	}
	if q >= 1 {
		return s.sortedNums[len(s.sortedNums)-1]
	}
	return quantileSorted(s.sortedNums, q)
}

// summaryEntry pins a computed Summary to the column state it was computed
// from: the mutation version, the row count, and the column kind. Since all
// cell storage is behind mutating accessors that bump the version, the only
// out-of-band change the key must catch is a rewrite of the exported Kind
// field (pipescript type conversions flip it after recoding values), which
// changes how values render in Distinct.
type summaryEntry struct {
	version uint64
	rows    int
	kind    Kind
	sum     *Summary
}

// Summary returns the cached one-pass statistics of the column,
// computing them if the column mutated since the last call. Invalidation
// is automatic: every mutating accessor (SetNum, SetStr, SetMissing,
// ClearMissing, the Append* family) bumps the version this cache is keyed
// on — there is no manual Touch() contract anymore. Concurrent readers are
// safe (the cache is a single atomic pointer; racing computations produce
// identical summaries and the last store wins). Mutations must not run
// concurrently with readers — the same rule that governs all column
// access.
func (c *Column) Summary() *Summary {
	v := c.version.Load()
	if e := c.cache.Load(); e != nil && e.version == v && e.rows == c.Len() && e.kind == c.Kind {
		return e.sum
	}
	sum := c.computeSummary()
	c.cache.Store(&summaryEntry{version: v, rows: c.Len(), kind: c.Kind, sum: sum})
	return sum
}

// computeSummary builds the Summary in a single pass over the column (plus
// one sort of the distinct set and, for numeric kinds, one sort of the
// values for the order statistics).
func (c *Column) computeSummary() *Summary {
	n := c.Len()
	s := &Summary{Rows: n, distinctSet: make(map[string]struct{})}
	numeric := c.Kind != KindString
	var vals []float64
	if numeric {
		vals = make([]float64, 0, n)
	}
	for i := 0; i < n; i++ {
		if c.IsMissing(i) {
			s.Missing++
			continue
		}
		s.distinctSet[c.ValueString(i)] = struct{}{}
		if numeric {
			vals = append(vals, c.Num(i))
		}
	}
	s.Distinct = make([]string, 0, len(s.distinctSet))
	for v := range s.distinctSet {
		s.Distinct = append(s.Distinct, v)
	}
	sort.Strings(s.Distinct)
	if !numeric || len(vals) == 0 {
		return s
	}

	st := Stats{Count: len(vals), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, v := range vals {
		sum += v
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	st.Mean = sum / float64(len(vals))
	varsum := 0.0
	for _, v := range vals {
		d := v - st.Mean
		varsum += d * d
	}
	st.Std = math.Sqrt(varsum / float64(len(vals)))
	sort.Float64s(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		st.Median = vals[mid]
	} else {
		st.Median = (vals[mid-1] + vals[mid]) / 2
	}
	st.Q1 = quantileSorted(vals, 0.25)
	st.Q3 = quantileSorted(vals, 0.75)
	s.Stats = st
	s.sortedNums = vals
	return s
}
