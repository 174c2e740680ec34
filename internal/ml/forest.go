package ml

import (
	"math/rand"

	"catdb/internal/pool"
)

// ForestConfig tunes a random forest (and the extra-trees ensemble).
type ForestConfig struct {
	Trees       int // default 50
	MaxDepth    int // default 12
	MinLeaf     int // default 3
	FeatureFrac float64
	Seed        int64
	// Backend selects the tree split backend (default auto: histogram
	// for large fits, exact for small ones).
	Backend Backend
	// MaxBins caps histogram bins per feature (default 256).
	MaxBins int
}

func (c ForestConfig) withDefaults() ForestConfig {
	if c.Trees <= 0 {
		c.Trees = 50
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 12
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 3
	}
	if c.FeatureFrac <= 0 {
		c.FeatureFrac = 0.6
	}
	return c
}

// Forest is a bagged random forest for classification and regression.
type Forest struct {
	Config  ForestConfig
	trees   []*Tree
	classes int
}

// NewForest returns a forest with the given configuration.
func NewForest(cfg ForestConfig) *Forest { return &Forest{Config: cfg.withDefaults()} }

// Fitted reports whether the forest has been trained.
func (f *Forest) Fitted() bool { return len(f.trees) > 0 }

// Fit trains a regression forest.
func (f *Forest) Fit(X [][]float64, y []float64) error {
	if err := checkXY(X, len(y)); err != nil {
		return err
	}
	f.classes = 0
	return f.fitEnsemble(X, y)
}

// FitClass trains a classification forest.
func (f *Forest) FitClass(X [][]float64, y []int, classes int) error {
	if err := checkXY(X, len(y)); err != nil {
		return err
	}
	if classes < 2 {
		return errClasses(classes)
	}
	f.classes = classes
	yf := make([]float64, len(y))
	for i, v := range y {
		yf[i] = float64(v)
	}
	return f.fitEnsemble(X, yf)
}

// fitEnsemble bags trees over a binned matrix built once and shared
// read-only across every tree. Each tree seeds its own RNG from its
// index, so the forest is identical at any worker count; pool.Each runs
// the single-worker case without spawning goroutines at all.
func (f *Forest) fitEnsemble(X [][]float64, yf []float64) error {
	cfg := f.Config
	n := len(yf)
	bm := sharedBinned(X, cfg.Backend, cfg.MaxBins, n)
	treeBackend := BackendExact
	if bm != nil {
		treeBackend = BackendHist
	}
	f.trees = make([]*Tree, cfg.Trees)
	err := pool.Each(cfg.Trees, func(i int) error {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
		rows := make([]int, n)
		for r := range rows {
			rows[r] = rng.Intn(n)
		}
		t := NewTree(TreeConfig{
			MaxDepth: cfg.MaxDepth, MinLeaf: cfg.MinLeaf,
			FeatureFrac: cfg.FeatureFrac, Seed: cfg.Seed + int64(i),
			Backend: treeBackend, MaxBins: cfg.MaxBins,
		})
		err := t.fitRows(bm, X, yf, f.classes, rows, nil)
		f.trees[i] = t
		return err
	})
	if err != nil {
		f.trees = nil
	}
	return err
}

// Predict averages tree outputs (regression) or majority-votes via
// averaged probabilities (classification, returned as class indices).
// An unfitted forest predicts zeros rather than NaN.
func (f *Forest) Predict(X [][]float64) []float64 {
	out := make([]float64, len(X))
	if !f.Fitted() {
		return out
	}
	if f.classes > 0 {
		p := f.Proba(X)
		for i := range p {
			out[i] = float64(argmax(p[i]))
		}
		return out
	}
	nt := float64(len(f.trees))
	forChunks(len(X), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var sum float64
			for _, t := range f.trees {
				sum += t.leafValue(X[i])[0]
			}
			out[i] = sum / nt
		}
	})
	return out
}

// PredictClass returns integer class predictions (zeros when unfitted).
func (f *Forest) PredictClass(X [][]float64) []int {
	if !f.Fitted() || f.classes == 0 {
		return make([]int, len(X))
	}
	return predictFromProba(f.Proba(X))
}

// Proba averages the trees' class distributions, fanning row chunks over
// the worker pool. An unfitted forest returns all-zero rows.
func (f *Forest) Proba(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	if !f.Fitted() || f.classes == 0 {
		for i := range out {
			out[i] = make([]float64, f.classes)
		}
		return out
	}
	nt := float64(len(f.trees))
	forChunks(len(X), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			acc := make([]float64, f.classes)
			for _, t := range f.trees {
				v := t.leafValue(X[i])
				var sum float64
				for _, x := range v {
					sum += x
				}
				if sum == 0 {
					sum = 1
				}
				for j, x := range v {
					acc[j] += x / sum
				}
			}
			for j := range acc {
				acc[j] /= nt
			}
			out[i] = acc
		}
	})
	return out
}
