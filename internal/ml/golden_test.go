package ml

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// tieData builds a tie-heavy fixture: every feature takes a handful of
// small-integer values, so each node's split sort orders long runs of
// equal keys whose labels differ. The permutation the sort leaves inside
// those runs fixes the summation order of the regression prefix sums.
// The regression target steps by 1e6 per value of feature 0 on top of
// unit noise, so inside a node the sq/n-mean² variance cancels to a few
// significant bits and the rounding left by the tie order decides
// between near-equal splits: a stable sort in place of pdqsort changes
// the regression hashes. Classification sweeps count integers and are
// tie-order-invariant by construction.
func tieData(n int, seed int64) ([][]float64, []int, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	yc := make([]int, n)
	yr := make([]float64, n)
	for i := range X {
		X[i] = []float64{
			float64(rng.Intn(4)),
			float64(rng.Intn(3)),
			float64(i % 5),
			float64(rng.Intn(8)),
			float64(rng.Intn(2)),
		}
		yr[i] = 1e6*X[i][0] - X[i][1] + 0.25*X[i][3]*X[i][4] + rng.NormFloat64()
		c := 0
		if X[i][0]+X[i][3] > 6 {
			c = 1
		}
		if X[i][1] == 2 && X[i][2] < 2 {
			c = 2
		}
		if rng.Float64() < 0.2 {
			c = rng.Intn(3)
		}
		yc[i] = c
	}
	return X, yc, yr
}

// bitsHash folds the exact float bits of every value into one FNV-64a
// hash, so a golden catches a change in the last ulp.
func bitsHash(vals ...[]float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, vs := range vals {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func flatten(p [][]float64) []float64 {
	var out []float64
	for _, row := range p {
		out = append(out, row...)
	}
	return out
}

// TestSplitSortGolden pins the tree fits' prediction bits on the
// tie-heavy fixture. The goldens were recorded with the reflection-based
// sort.Slice split sort; slices.SortFunc runs the same pdqsort and must
// leave every tie in the same order. The hist cases run the histogram
// sweep near the root and the exact sweep below ExactNodeSize, and the
// AUC case pins the metric's rank sort over tied scores.
func TestSplitSortGolden(t *testing.T) {
	X, yc, yr := tieData(700, 17)
	Xte, yte, _ := tieData(300, 18)
	backends := []struct {
		name    string
		backend Backend
	}{{"exact", BackendExact}, {"hist", BackendHist}}
	want := map[string]uint64{
		"tree/exact":         0x8265b01929ee1e79,
		"tree/hist":          0x8265b01929ee1e79,
		"forest/exact":       0x7789e9d134c6e42a,
		"forest/hist":        0xb9e8965fa39683b0,
		"gbm/exact":          0xfd976b4521c9ee88,
		"gbm/hist":           0x7e16c9259afed4e,
		"forest-class/exact": 0xf6ecf869aaf335f2,
		"forest-class/hist":  0xf6ecf869aaf335f2,
	}
	got := map[string]uint64{}
	for _, b := range backends {
		tr := NewTree(TreeConfig{MaxDepth: 8, MinLeaf: 3, Seed: 5, Backend: b.backend})
		if err := tr.Fit(X, yr); err != nil {
			t.Fatal(err)
		}
		got["tree/"+b.name] = bitsHash(tr.Predict(X), tr.Predict(Xte))

		f := NewForest(ForestConfig{Trees: 12, Seed: 7, Backend: b.backend})
		if err := f.Fit(X, yr); err != nil {
			t.Fatal(err)
		}
		got["forest/"+b.name] = bitsHash(f.Predict(X), f.Predict(Xte))

		g := NewGBM(GBMConfig{Rounds: 15, Seed: 9, Backend: b.backend})
		if err := g.Fit(X, yr); err != nil {
			t.Fatal(err)
		}
		got["gbm/"+b.name] = bitsHash(g.Predict(X), g.Predict(Xte))

		fc := NewForest(ForestConfig{Trees: 12, Seed: 11, Backend: b.backend})
		if err := fc.FitClass(X, yc, 3); err != nil {
			t.Fatal(err)
		}
		got["forest-class/"+b.name] = bitsHash(flatten(fc.Proba(X)), flatten(fc.Proba(Xte)))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: prediction hash %#x, golden %#x", k, got[k], w)
		}
	}

	// Scores with many ties: the AUC's rank sort must keep its result.
	score := make([]float64, len(yte))
	truth := make([]int, len(yte))
	for i := range yte {
		score[i] = float64((i * 7) % 6)
		if yte[i] == 1 {
			truth[i] = 1
		}
	}
	if auc, w := BinaryAUC(score, truth), 0.561535019019915; auc != w {
		t.Errorf("BinaryAUC = %v (bits %#x), golden %v", auc, math.Float64bits(auc), w)
	}
}
