package ml

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Backend selects how a tree finds splits.
type Backend int

const (
	// BackendAuto uses the histogram backend for large fits and the exact
	// sort-and-sweep for small ones (the binning pass only pays for itself
	// past autoHistMinRows).
	BackendAuto Backend = iota
	// BackendExact sorts every feature at every node (the original path).
	BackendExact
	// BackendHist quantile-bins each feature once and finds splits by
	// histogram sweep, falling back to the exact sweep for nodes smaller
	// than ExactNodeSize.
	BackendHist
)

// TreeConfig tunes CART construction.
type TreeConfig struct {
	MaxDepth      int // default 10
	MinLeaf       int // default 5
	MaxThresholds int // exact backend: candidate thresholds per feature; default 32
	// FeatureFrac is the fraction of features examined per split (random
	// forests use < 1). 0 means all features.
	FeatureFrac float64
	Seed        int64
	// Backend selects exact vs histogram split finding (default auto).
	Backend Backend
	// MaxBins caps histogram bins per feature (default and max 256).
	MaxBins int
	// ExactNodeSize is the node size below which the histogram backend
	// switches to the exact sweep: once a node holds fewer rows than
	// bins, sorting them outright is cheaper than a 256-bin sweep.
	// Default 64.
	ExactNodeSize int
}

func (c TreeConfig) withDefaults() TreeConfig {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 10
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 5
	}
	if c.MaxThresholds <= 0 {
		c.MaxThresholds = 32
	}
	if c.MaxBins <= 1 || c.MaxBins > maxHistBins {
		c.MaxBins = maxHistBins
	}
	if c.ExactNodeSize <= 0 {
		c.ExactNodeSize = 64
	}
	return c
}

type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	// leaf payload
	isLeaf bool
	value  []float64 // class distribution (classification) or 1-elem mean (regression)
}

// Tree is a CART decision tree usable for classification and regression.
type Tree struct {
	Config  TreeConfig
	root    *treeNode
	classes int // 0 for regression
}

// NewTree returns a tree with the given configuration.
func NewTree(cfg TreeConfig) *Tree { return &Tree{Config: cfg.withDefaults()} }

// Fit trains a regression tree.
func (t *Tree) Fit(X [][]float64, y []float64) error {
	if err := checkXY(X, len(y)); err != nil {
		return err
	}
	return t.fitRows(nil, X, y, 0, nil, nil)
}

// FitClass trains a classification tree over integer labels in [0,classes).
func (t *Tree) FitClass(X [][]float64, y []int, classes int) error {
	if err := checkXY(X, len(y)); err != nil {
		return err
	}
	if classes < 2 {
		return errClasses(classes)
	}
	yf := make([]float64, len(y))
	for i, v := range y {
		yf[i] = float64(v)
	}
	return t.fitRows(nil, X, yf, classes, nil, nil)
}

// FitBinned trains a regression tree over a shared binned matrix,
// restricted to rows (nil = all rows; duplicate indices implement
// bagging). Ensembles build the matrix once and hand it to every tree.
func (t *Tree) FitBinned(bm *BinnedMatrix, y []float64, rows []int) error {
	if err := checkBinned(bm, len(y)); err != nil {
		return err
	}
	return t.fitRows(bm, bm.raw, y, 0, rows, nil)
}

// FitClassBinned trains a classification tree over a shared binned matrix.
func (t *Tree) FitClassBinned(bm *BinnedMatrix, y []int, classes int, rows []int) error {
	if err := checkBinned(bm, len(y)); err != nil {
		return err
	}
	if classes < 2 {
		return errClasses(classes)
	}
	yf := make([]float64, len(y))
	for i, v := range y {
		yf[i] = float64(v)
	}
	return t.fitRows(bm, bm.raw, yf, classes, rows, nil)
}

func checkBinned(bm *BinnedMatrix, n int) error {
	if bm == nil || bm.rows == 0 {
		return fmt.Errorf("ml: empty binned matrix")
	}
	if bm.rows != n {
		return fmt.Errorf("ml: binned matrix has %d rows, y has %d", bm.rows, n)
	}
	return nil
}

// fitRows is the shared training entry point: bm may be nil (exact
// backend or auto-resolve), rows may be nil (all rows) or carry
// duplicates (bagging), and pred — regression only — captures each
// training row's leaf value during growth so boosting needs no
// re-traversal of X after each round.
func (t *Tree) fitRows(bm *BinnedMatrix, X [][]float64, yf []float64, classes int, rows []int, pred []float64) error {
	t.classes = classes
	if rows == nil {
		rows = allRows(len(yf))
	}
	if len(rows) == 0 {
		return fmt.Errorf("ml: no training rows")
	}
	if bm == nil {
		if ResolveBackend(t.Config.Backend, len(rows)) == BackendHist {
			bm = NewBinnedMatrix(X, t.Config.MaxBins)
		}
	} else if t.Config.Backend == BackendExact {
		bm = nil
	}
	g := newGrower(t, X, bm, yf, pred, rand.New(rand.NewSource(t.Config.Seed)))
	if classes > 0 {
		g.yc = make([]int16, len(yf))
		for i, v := range yf {
			c := int(v)
			if c < 0 || c >= classes {
				c = -1 // out-of-range labels are ignored, as in the exact sweep
			}
			g.yc[i] = int16(c)
		}
	}
	t.root = g.grow(rows, 0, nil)
	return nil
}

func errClasses(c int) error { return fmt.Errorf("ml: need at least 2 classes, got %d", c) }

// Predict returns per-row predictions: the mean for regression, the argmax
// class index (as float64) for classification.
func (t *Tree) Predict(X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, row := range X {
		v := t.leafValue(row)
		if t.classes > 0 {
			out[i] = float64(argmax(v))
		} else {
			out[i] = v[0]
		}
	}
	return out
}

// Proba returns normalized class distributions (classification trees only).
func (t *Tree) Proba(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		v := t.leafValue(row)
		p := make([]float64, len(v))
		var sum float64
		for _, x := range v {
			sum += x
		}
		if sum == 0 {
			sum = 1
		}
		for j, x := range v {
			p[j] = x / sum
		}
		out[i] = p
	}
	return out
}

func (t *Tree) leafValue(row []float64) []float64 {
	n := t.root
	for n != nil && !n.isLeaf {
		if row[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	if n == nil {
		if t.classes > 0 {
			return make([]float64, t.classes)
		}
		return []float64{0}
	}
	return n.value
}

func allRows(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// bestSplit scans (a sample of) features for the impurity-minimizing
// split using a sort-and-sweep: rows are ordered by feature value once and
// prefix statistics give each candidate boundary's gain in O(1).
func (t *Tree) bestSplit(X [][]float64, y []float64, idx []int, rng *rand.Rand) (feat int, thr float64, ok bool) {
	nf := len(X[0])
	feats := rng.Perm(nf)
	if t.Config.FeatureFrac > 0 && t.Config.FeatureFrac < 1 {
		k := int(float64(nf)*t.Config.FeatureFrac + 0.999)
		if k < 1 {
			k = 1
		}
		feats = feats[:k]
	}
	n := len(idx)
	bestGain := 0.0
	parentImp := t.impurity(y, idx)
	type vy struct{ v, y float64 }
	arr := make([]vy, n)
	// Classification sweep state.
	var leftCounts, rightCounts []float64
	if t.classes > 0 {
		leftCounts = make([]float64, t.classes)
		rightCounts = make([]float64, t.classes)
	}
	for _, f := range feats {
		for i, r := range idx {
			arr[i] = vy{X[r][f], y[r]}
		}
		// Ties must keep the order of a plain a.v < b.v pdqsort: they
		// fix the summation order of the regression prefix sums below.
		slices.SortFunc(arr, func(a, b vy) int { return cmpLess(a.v, b.v) })
		if arr[0].v == arr[n-1].v {
			continue // constant feature in this node
		}
		// Candidate boundaries: positions where the value changes,
		// subsampled to MaxThresholds.
		stride := 1
		if n > t.Config.MaxThresholds*2 {
			stride = n / t.Config.MaxThresholds
		}
		if t.classes > 0 {
			for c := range leftCounts {
				leftCounts[c] = 0
			}
			for c := range rightCounts {
				rightCounts[c] = 0
			}
			for i := 0; i < n; i++ {
				c := int(arr[i].y)
				if c >= 0 && c < t.classes {
					rightCounts[c]++
				}
			}
			nextEval := t.Config.MinLeaf
			for p := 1; p < n; p++ {
				c := int(arr[p-1].y)
				if c >= 0 && c < t.classes {
					leftCounts[c]++
					rightCounts[c]--
				}
				if p < nextEval || p < t.Config.MinLeaf || n-p < t.Config.MinLeaf {
					continue
				}
				if arr[p].v == arr[p-1].v {
					continue
				}
				nextEval = p + stride
				gL := giniFromCounts(leftCounts, float64(p))
				gR := giniFromCounts(rightCounts, float64(n-p))
				gain := parentImp - (float64(p)*gL+float64(n-p)*gR)/float64(n)
				if gain > bestGain+1e-12 {
					bestGain, feat, ok = gain, f, true
					thr = (arr[p-1].v + arr[p].v) / 2
				}
			}
			continue
		}
		// Regression sweep: prefix sums for variance.
		var sumL, sqL float64
		var sumR, sqR float64
		for i := 0; i < n; i++ {
			sumR += arr[i].y
			sqR += arr[i].y * arr[i].y
		}
		nextEval := t.Config.MinLeaf
		for p := 1; p < n; p++ {
			v := arr[p-1].y
			sumL += v
			sqL += v * v
			sumR -= v
			sqR -= v * v
			if p < nextEval || p < t.Config.MinLeaf || n-p < t.Config.MinLeaf {
				continue
			}
			if arr[p].v == arr[p-1].v {
				continue
			}
			nextEval = p + stride
			vL := varFromSums(sumL, sqL, float64(p))
			vR := varFromSums(sumR, sqR, float64(n-p))
			gain := parentImp - (float64(p)*vL+float64(n-p)*vR)/float64(n)
			if gain > bestGain+1e-12 {
				bestGain, feat, ok = gain, f, true
				thr = (arr[p-1].v + arr[p].v) / 2
			}
		}
	}
	return feat, thr, ok
}

func giniFromCounts(counts []float64, n float64) float64 {
	if n <= 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := c / n
		g -= p * p
	}
	return g
}

func varFromSums(sum, sq, n float64) float64 {
	if n <= 0 {
		return 0
	}
	mean := sum / n
	v := sq/n - mean*mean
	if v < 0 {
		return 0
	}
	return v
}

// impurity is Gini for classification, variance for regression.
func (t *Tree) impurity(y []float64, idx []int) float64 {
	if t.classes > 0 {
		counts := make([]float64, t.classes)
		for _, r := range idx {
			c := int(y[r])
			if c >= 0 && c < t.classes {
				counts[c]++
			}
		}
		n := float64(len(idx))
		g := 1.0
		for _, c := range counts {
			p := c / n
			g -= p * p
		}
		return g
	}
	var sum, sq float64
	for _, r := range idx {
		sum += y[r]
		sq += y[r] * y[r]
	}
	n := float64(len(idx))
	mean := sum / n
	v := sq/n - mean*mean
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	return v
}
