package ml

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
)

// roundTrip pushes a FittedModel through JSON and back, returning the
// reconstructed live model for rows of nFeatures columns.
func roundTrip(t *testing.T, m any, nFeatures int) any {
	t.Helper()
	fm, err := Export(m)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	blob, err := json.Marshal(fm)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back FittedModel
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	out, err := back.Model(nFeatures)
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	return out
}

type prober interface {
	Proba(X [][]float64) [][]float64
}

type predictor interface {
	Predict(X [][]float64) []float64
}

func sameProba(t *testing.T, name string, a, b prober, X [][]float64) {
	t.Helper()
	pa, pb := a.Proba(X), b.Proba(X)
	if len(pa) != len(pb) {
		t.Fatalf("%s: proba row count %d vs %d", name, len(pa), len(pb))
	}
	for i := range pa {
		if len(pa[i]) != len(pb[i]) {
			t.Fatalf("%s row %d: class count %d vs %d", name, i, len(pa[i]), len(pb[i]))
		}
		for j := range pa[i] {
			if pa[i][j] != pb[i][j] {
				t.Fatalf("%s row %d class %d: %v != %v (not bit-identical)",
					name, i, j, pa[i][j], pb[i][j])
			}
		}
	}
}

func samePredict(t *testing.T, name string, a, b predictor, X [][]float64) {
	t.Helper()
	pa, pb := a.Predict(X), b.Predict(X)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("%s row %d: %v != %v (not bit-identical)", name, i, pa[i], pb[i])
		}
	}
}

func TestSerializeClassifiersRoundTrip(t *testing.T) {
	X, y := synthClass(400, 3, 0.6, 7)
	Xq, _ := synthClass(90, 3, 0.9, 8)
	cases := []struct {
		name string
		make func() interface {
			FitClass(X [][]float64, y []int, classes int) error
			Proba(X [][]float64) [][]float64
		}
	}{
		{"forest", func() interface {
			FitClass(X [][]float64, y []int, classes int) error
			Proba(X [][]float64) [][]float64
		} {
			return NewForest(ForestConfig{Trees: 12, Seed: 3})
		}},
		{"extra_trees", func() interface {
			FitClass(X [][]float64, y []int, classes int) error
			Proba(X [][]float64) [][]float64
		} {
			return NewExtraTrees(ForestConfig{Trees: 12, Seed: 3})
		}},
		{"tree", func() interface {
			FitClass(X [][]float64, y []int, classes int) error
			Proba(X [][]float64) [][]float64
		} {
			return NewTree(TreeConfig{Seed: 3})
		}},
		{"gbm", func() interface {
			FitClass(X [][]float64, y []int, classes int) error
			Proba(X [][]float64) [][]float64
		} {
			return NewGBM(GBMConfig{Rounds: 10, Seed: 3})
		}},
		{"knn", func() interface {
			FitClass(X [][]float64, y []int, classes int) error
			Proba(X [][]float64) [][]float64
		} {
			return NewKNN(KNNConfig{K: 5})
		}},
		{"logistic", func() interface {
			FitClass(X [][]float64, y []int, classes int) error
			Proba(X [][]float64) [][]float64
		} {
			return NewLogistic(LinearConfig{Epochs: 8, Seed: 3})
		}},
		{"naive_bayes", func() interface {
			FitClass(X [][]float64, y []int, classes int) error
			Proba(X [][]float64) [][]float64
		} {
			return NewNaiveBayes()
		}},
		{"svm", func() interface {
			FitClass(X [][]float64, y []int, classes int) error
			Proba(X [][]float64) [][]float64
		} {
			return NewSVM(LinearConfig{Epochs: 4, Seed: 3})
		}},
		{"tabpfn", func() interface {
			FitClass(X [][]float64, y []int, classes int) error
			Proba(X [][]float64) [][]float64
		} {
			return NewTabPFNSim()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.make()
			if err := m.FitClass(X, y, 3); err != nil {
				t.Fatal(err)
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			for _, workers := range []int{1, 4} {
				runtime.GOMAXPROCS(workers)
				back := roundTrip(t, m, len(X[0])).(prober)
				sameProba(t, tc.name, m, back, Xq)
			}
		})
	}
}

func TestSerializeRegressorsRoundTrip(t *testing.T) {
	X, y := synthReg(400, 0.3, 11)
	Xq, _ := synthReg(90, 0.8, 12)
	cases := []struct {
		name string
		make func() interface {
			Fit(X [][]float64, y []float64) error
			Predict(X [][]float64) []float64
		}
	}{
		{"forest", func() interface {
			Fit(X [][]float64, y []float64) error
			Predict(X [][]float64) []float64
		} {
			return NewForest(ForestConfig{Trees: 12, Seed: 3})
		}},
		{"extra_trees", func() interface {
			Fit(X [][]float64, y []float64) error
			Predict(X [][]float64) []float64
		} {
			return NewExtraTrees(ForestConfig{Trees: 12, Seed: 3})
		}},
		{"tree", func() interface {
			Fit(X [][]float64, y []float64) error
			Predict(X [][]float64) []float64
		} {
			return NewTree(TreeConfig{Seed: 3})
		}},
		{"gbm", func() interface {
			Fit(X [][]float64, y []float64) error
			Predict(X [][]float64) []float64
		} {
			return NewGBM(GBMConfig{Rounds: 10, Seed: 3})
		}},
		{"knn", func() interface {
			Fit(X [][]float64, y []float64) error
			Predict(X [][]float64) []float64
		} {
			return NewKNN(KNNConfig{K: 5})
		}},
		{"linear", func() interface {
			Fit(X [][]float64, y []float64) error
			Predict(X [][]float64) []float64
		} {
			return NewLinear(LinearConfig{Epochs: 30})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.make()
			if err := m.Fit(X, y); err != nil {
				t.Fatal(err)
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			for _, workers := range []int{1, 4} {
				runtime.GOMAXPROCS(workers)
				back := roundTrip(t, m, len(X[0])).(predictor)
				samePredict(t, tc.name, m, back, Xq)
			}
		})
	}
}

func TestSerializeDeterministicEncoding(t *testing.T) {
	X, y := synthClass(200, 2, 0.5, 5)
	f := NewForest(ForestConfig{Trees: 5, Seed: 1})
	if err := f.FitClass(X, y, 2); err != nil {
		t.Fatal(err)
	}
	fm, err := Export(f)
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(fm)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(fm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("encoding is not deterministic across marshals")
	}
}

func TestSerializeRejectsUnfittedAndMalformed(t *testing.T) {
	if _, err := Export(NewForest(ForestConfig{})); err == nil {
		t.Fatal("expected error exporting unfitted forest")
	}
	if _, err := Export(42); err == nil {
		t.Fatal("expected error exporting unknown type")
	}
	// Child index pointing at or before its parent must be rejected, not
	// walked into a cycle.
	bad := &FittedModel{Kind: KindTree, Classes: 2, Trees: [][]FlatNode{{
		{Feature: 0, Threshold: 1, Left: 0, Right: -1},
	}}}
	if _, err := bad.Model(0); err == nil {
		t.Fatal("expected error for self-referential tree dump")
	}
	if _, err := (&FittedModel{Kind: "nope"}).Model(0); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}
