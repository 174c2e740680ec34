package ml

import (
	"math"
	"sort"
)

// BinnedMatrix is the shared, read-only training representation behind
// the histogram tree backend: every feature is quantile-binned once into
// at most 256 uint8 codes, stored column-major so split finding scans a
// contiguous byte slice per feature instead of chasing row pointers. The
// per-feature edge arrays recover real-valued thresholds, so trees grown
// on codes still predict over raw float rows. A matrix is built once per
// ensemble Fit/FitClass and shared — race-free, since it is never
// mutated after construction — across all trees of a Forest/ExtraTrees
// and all rounds × one-vs-rest classes of a GBM.
type BinnedMatrix struct {
	rows     int
	features int
	maxBins  int         // max bins over features; histogram slab stride
	bins     []int       // per-feature bin count (len(edges[f])+1)
	codes    [][]uint8   // feature-major: codes[f][row]
	edges    [][]float64 // per-feature ascending thresholds; bin b holds (edges[b-1], edges[b]]
	raw      [][]float64 // original row-major matrix, for the exact-fallback sweep
}

// maxHistBins is the hard cap on bins per feature (uint8 codes).
const maxHistBins = 256

// NewBinnedMatrix quantile-bins X into at most maxBins (≤256) codes per
// feature. Features with few distinct values get one bin per value with
// midpoint edges, so low-cardinality columns bin losslessly.
func NewBinnedMatrix(X [][]float64, maxBins int) *BinnedMatrix {
	if maxBins <= 1 || maxBins > maxHistBins {
		maxBins = maxHistBins
	}
	n := len(X)
	d := 0
	if n > 0 {
		d = len(X[0])
	}
	bm := &BinnedMatrix{
		rows: n, features: d,
		bins:  make([]int, d),
		codes: make([][]uint8, d),
		edges: make([][]float64, d),
		raw:   X,
	}
	vals := make([]float64, 0, n)
	for f := 0; f < d; f++ {
		vals = vals[:0]
		for _, row := range X {
			if v := row[f]; !math.IsNaN(v) {
				vals = append(vals, v)
			}
		}
		sort.Float64s(vals)
		edges := binEdges(vals, maxBins)
		codes := make([]uint8, n)
		for r, row := range X {
			// NaN compares false against every edge and lands in the last
			// bin — the same side a NaN takes at predict time (x <= thr is
			// false), so binning and traversal agree on missing values.
			codes[r] = uint8(sort.SearchFloat64s(edges, row[f]))
		}
		bm.edges[f] = edges
		bm.codes[f] = codes
		bm.bins[f] = len(edges) + 1
		if bm.bins[f] > bm.maxBins {
			bm.maxBins = bm.bins[f]
		}
	}
	if bm.maxBins == 0 {
		bm.maxBins = 1
	}
	return bm
}

// binEdges picks ascending split thresholds over sorted values. Every
// edge is the midpoint between two adjacent observed values — the same
// thresholds the exact sort-and-sweep proposes — either between all
// consecutive distinct values (when few) or between quantile cut values
// and their successors.
func binEdges(sorted []float64, maxBins int) []float64 {
	m := len(sorted)
	if m == 0 {
		return nil
	}
	distinct := 1
	for i := 1; i < m && distinct <= maxBins; i++ {
		if sorted[i] != sorted[i-1] {
			distinct++
		}
	}
	var edges []float64
	if distinct <= maxBins {
		for i := 1; i < m; i++ {
			if sorted[i] != sorted[i-1] {
				edges = append(edges, (sorted[i-1]+sorted[i])/2)
			}
		}
		return edges
	}
	prev := math.Inf(-1)
	for k := 1; k < maxBins; k++ {
		v := sorted[k*m/maxBins]
		if v <= prev {
			continue
		}
		// First value strictly greater than v; the midpoint separates
		// "<= v" from the rest exactly.
		j := sort.SearchFloat64s(sorted, v)
		for j < m && sorted[j] == v {
			j++
		}
		if j >= m {
			break
		}
		edges = append(edges, (v+sorted[j])/2)
		prev = v
	}
	return edges
}

// Rows returns the number of binned rows.
func (bm *BinnedMatrix) Rows() int { return bm.rows }

// Features returns the number of binned features.
func (bm *BinnedMatrix) Features() int { return bm.features }

// Bins returns the bin count of feature f.
func (bm *BinnedMatrix) Bins(f int) int { return bm.bins[f] }

// autoHistMinRows is the fit size at which BackendAuto switches to the
// histogram backend; below it the exact sort-and-sweep is cheaper than
// paying the one-time binning pass.
const autoHistMinRows = 512

// ResolveBackend is the one auto rule: it returns the split backend a
// tree fit over rows training rows runs, BackendExact or BackendHist.
// Auto picks the histogram backend at autoHistMinRows rows and up. Fits
// call it to decide whether to bin, and the pipescript fit span calls it
// to report the backend a fit used.
func ResolveBackend(b Backend, rows int) Backend {
	switch b {
	case BackendExact, BackendHist:
		return b
	}
	if rows >= autoHistMinRows {
		return BackendHist
	}
	return BackendExact
}

// String returns the backend's backend= option value.
func (b Backend) String() string {
	switch b {
	case BackendExact:
		return "exact"
	case BackendHist:
		return "hist"
	}
	return "auto"
}

// sharedBinned resolves an ensemble-level backend choice into a shared
// binned matrix (nil means every tree uses the exact path).
func sharedBinned(X [][]float64, backend Backend, maxBins, n int) *BinnedMatrix {
	if ResolveBackend(backend, n) == BackendHist {
		return NewBinnedMatrix(X, maxBins)
	}
	return nil
}
