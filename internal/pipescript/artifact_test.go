package pipescript

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"catdb/internal/data"
	"catdb/internal/ml"
	"catdb/internal/obs"
)

// messyRegTable builds a regression table with a noisy numeric target,
// missing values, and a dirty categorical for target encoding.
func messyRegTable(n int, seed int64) *data.Table {
	rng := rand.New(rand.NewSource(seed))
	num := make([]float64, n)
	num2 := make([]float64, n)
	cat := make([]string, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		c := i % 3
		num[i] = float64(c)*2 + rng.NormFloat64()*0.4
		num2[i] = rng.NormFloat64() * 3
		cat[i] = []string{"red", "RED", "green", "Green", "blue", "blue "}[c*2+rng.Intn(2)]
		y[i] = 4*float64(c) + 0.5*num2[i] + rng.NormFloat64()*0.3
	}
	t := data.NewTable("mr")
	t.MustAddColumn(data.NewNumeric("num", num))
	t.MustAddColumn(data.NewNumeric("num2", num2))
	t.MustAddColumn(data.NewString("cat", cat))
	t.MustAddColumn(data.NewNumeric("y", y))
	for i := 0; i < n; i += 17 {
		t.Col("num").SetMissing(i)
	}
	return t
}

// fitRoundTrip fits a pipeline, serializes the artifact, and loads it
// back, returning the inline result and the round-tripped artifact.
func fitRoundTrip(t *testing.T, ex *Executor, src string, tr, te *data.Table) (*Result, *FittedPipeline) {
	t.Helper()
	ex.CapturePredictions = true
	res, fp, err := ex.Fit(mustParse(t, src), tr, te)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fp.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	back, err := LoadFittedPipeline(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return res, back
}

func TestArtifactClassificationBitIdentical(t *testing.T) {
	src := `pipeline "clf"
impute "num" strategy=median
dedup_values "cat"
onehot "cat"
khot "lst"
winsorize "num" lower=0.05 upper=0.95
scale all_numeric method=standard
train model=%s target="y" trees=10 rounds=8
evaluate metric=auto
`
	for _, model := range []string{"random_forest", "gbm", "knn"} {
		for _, fitWorkers := range []int{1, 4} {
			tr, te := split(messyTable(900, 2), 5)
			setProcs(t, fitWorkers)
			ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 3}
			res, fp := fitRoundTrip(t, ex, fmt.Sprintf(src, model), tr, te)
			if len(res.TestProba) == 0 {
				t.Fatalf("%s: no captured test probabilities", model)
			}
			for _, predWorkers := range []int{1, 4} {
				setProcs(t, predWorkers)
				fp.model = nil // force re-instantiation at this worker count
				pred, err := fp.Predict(te)
				if err != nil {
					t.Fatalf("%s: predict: %v", model, err)
				}
				if pred.Rows != len(res.TestProba) {
					t.Fatalf("%s: %d rows scored, inline scored %d", model, pred.Rows, len(res.TestProba))
				}
				for i := range pred.Proba {
					for j := range pred.Proba[i] {
						if pred.Proba[i][j] != res.TestProba[i][j] {
							t.Fatalf("%s (fit w=%d, pred w=%d) row %d class %d: artifact %v != inline %v",
								model, fitWorkers, predWorkers, i, j, pred.Proba[i][j], res.TestProba[i][j])
						}
					}
					if pred.Values[i] != res.TestPredictions[i] || pred.Labels[i] != res.TestLabels[i] {
						t.Fatalf("%s row %d: label %q/%v != inline %q/%v", model, i,
							pred.Labels[i], pred.Values[i], res.TestLabels[i], res.TestPredictions[i])
					}
				}
			}
		}
	}
}

func TestArtifactRegressionBitIdentical(t *testing.T) {
	src := `pipeline "reg"
impute "num" strategy=median
target_encode "cat"
winsorize "num2" lower=0.02 upper=0.98
scale "num" method=standard
train model=%s target="y" trees=10 rounds=8
evaluate metric=auto
`
	for _, model := range []string{"random_forest", "gbm", "knn"} {
		tr, te := split(messyRegTable(900, 4), 6)
		setProcs(t, 2)
		ex := &Executor{Target: "y", Task: data.Regression, Seed: 3}
		res, fp := fitRoundTrip(t, ex, fmt.Sprintf(src, model), tr, te)
		if len(res.TestPredictions) == 0 {
			t.Fatalf("%s: no captured test predictions", model)
		}
		for _, predWorkers := range []int{1, 4} {
			setProcs(t, predWorkers)
			fp.model = nil
			pred, err := fp.Predict(te)
			if err != nil {
				t.Fatalf("%s: predict: %v", model, err)
			}
			for i := range pred.Values {
				if pred.Values[i] != res.TestPredictions[i] {
					t.Fatalf("%s (pred w=%d) row %d: artifact %v != inline %v",
						model, predWorkers, i, pred.Values[i], res.TestPredictions[i])
				}
			}
		}
	}
}

func TestArtifactDeterministicAcrossWorkersAndSaves(t *testing.T) {
	src := `pipeline "det"
impute "num" strategy=median
dedup_values "cat"
onehot "cat"
khot "lst"
scale all_numeric method=standard
train model=random_forest target="y" trees=8
evaluate metric=auto
`
	var blobs [][]byte
	for _, workers := range []int{1, 4} {
		tr, te := split(messyTable(600, 2), 5)
		setProcs(t, workers)
		ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 3}
		_, fp, err := ex.Fit(mustParse(t, src), tr, te)
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := fp.Save(&a); err != nil {
			t.Fatal(err)
		}
		if err := fp.Save(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("artifact encoding not deterministic across saves")
		}
		blobs = append(blobs, a.Bytes())
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatal("artifact differs between fit worker counts")
	}
}

// TestScaleExemptsTargetOnTestSplit is the regression test for the
// target-leakage bug: `scale "y"` used to rescale held-out ground truth,
// so TestRMSE was computed in scaled units instead of target units.
func TestScaleExemptsTargetOnTestSplit(t *testing.T) {
	tr, te := split(messyRegTable(600, 9), 11)
	rawY := append([]float64(nil), te.Col("y").NumsView()...)
	src := `pipeline "leak"
impute "num" strategy=median
drop "cat"
scale "y" method=standard
train model=linear_regression target="y"
evaluate metric=auto
`
	ex := &Executor{Target: "y", Task: data.Regression, Seed: 1, CapturePredictions: true}
	res, err := ex.Execute(mustParse(t, src), tr, te)
	if err != nil {
		t.Fatal(err)
	}
	// The model learned the scaled target, so its raw-unit RMSE is large;
	// the reported metric must be against the UNSCALED test truth.
	want := ml.RMSE(res.TestPredictions, rawY)
	if res.TestRMSE != want {
		t.Fatalf("TestRMSE = %v, want %v (computed against raw ground truth)", res.TestRMSE, want)
	}
	// The scaled train target has std≈1 while raw y spans ~4 units per
	// class; the honest RMSE is far above the scaled-truth RMSE the old
	// code reported (which was < 1 by construction).
	if res.TestRMSE < 1 {
		t.Fatalf("TestRMSE = %v suspiciously small: test ground truth looks rescaled", res.TestRMSE)
	}
}

// TestTrainRejectsMissingTarget is the regression test for the
// NaN-target bug: missing regression targets used to flow into the fit
// as silent zeros, and missing classification labels became a "" class.
func TestTrainRejectsMissingTarget(t *testing.T) {
	src := `pipeline "nan"
impute "num" strategy=median
drop "cat"
train model=decision_tree target="y"
evaluate metric=auto
`
	t.Run("regression", func(t *testing.T) {
		tab := messyRegTable(300, 3)
		for i := 0; i < tab.NumRows(); i += 11 {
			tab.Col("y").SetMissing(i)
		}
		tr, te := split(tab, 5)
		ex := &Executor{Target: "y", Task: data.Regression, Seed: 1}
		_, err := ex.Execute(mustParse(t, src), tr, te)
		var re *RuntimeError
		if !errors.As(err, &re) || re.Code != ErrNaNInMatrix {
			t.Fatalf("err = %v, want %s for missing regression targets", err, ErrNaNInMatrix)
		}
	})
	t.Run("classification", func(t *testing.T) {
		tab := messyTable(300, 3)
		for i := 0; i < tab.NumRows(); i += 11 {
			tab.Col("y").SetMissing(i)
		}
		tr, te := split(tab, 5)
		ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 1}
		src := `pipeline "nanc"
impute "num" strategy=median
dedup_values "cat"
onehot "cat"
khot "lst"
train model=decision_tree target="y"
evaluate metric=auto
`
		_, err := ex.Execute(mustParse(t, src), tr, te)
		var re *RuntimeError
		if !errors.As(err, &re) || re.Code != ErrNaNInMatrix {
			t.Fatalf("err = %v, want %s for missing class labels", err, ErrNaNInMatrix)
		}
	})
}

func TestArtifactNeverRecordsLabelSteps(t *testing.T) {
	src := `pipeline "labels"
impute "num" strategy=median
impute "y" strategy=most_frequent
dedup_values "y"
dedup_values "cat"
onehot "cat"
khot "lst"
train model=decision_tree target="y"
evaluate metric=auto
`
	tab := messyTable(300, 3)
	for i := 0; i < tab.NumRows(); i += 13 {
		tab.Col("num").SetMissing(i)
	}
	tr, te := split(tab, 5)
	ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 1}
	_, fp, err := ex.Fit(mustParse(t, src), tr, te)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range fp.Steps {
		if step.touchesTarget("y") {
			t.Fatalf("artifact recorded a label-touching step: %+v", step)
		}
	}
	for _, f := range fp.Features {
		if f == "y" {
			t.Fatal("label column listed as a model feature")
		}
	}
}

func TestPredictContractErrors(t *testing.T) {
	src := `pipeline "contract"
dedup_values "cat"
onehot "cat"
khot "lst"
train model=decision_tree target="y"
evaluate metric=auto
`
	base := messyTable(300, 3)
	// No missing numerics for this pipeline (no impute step).
	for i := 0; i < base.NumRows(); i++ {
		if base.Col("num").IsMissing(i) {
			base.Col("num").ClearMissing(i)
			base.Col("num").SetNum(i, 0)
		}
	}
	tr, te := split(base, 5)
	ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 1}
	_, fp, err := ex.Fit(mustParse(t, src), tr, te)
	if err != nil {
		t.Fatal(err)
	}
	wantCode := func(t *testing.T, err error, code string) {
		t.Helper()
		var ae *ArtifactError
		if !errors.As(err, &ae) || ae.Code != code {
			t.Fatalf("err = %v, want artifact error %s", err, code)
		}
	}
	t.Run("absent_feature", func(t *testing.T) {
		batch := te.Clone()
		batch.DropColumn("cat") // its onehot features can never materialize
		_, err := fp.Predict(batch)
		wantCode(t, err, ErrFeatureAbsent)
	})
	t.Run("nan_feature", func(t *testing.T) {
		batch := te.Clone()
		batch.Col("num").SetMissing(0)
		_, err := fp.Predict(batch)
		wantCode(t, err, ErrFeatureNaN)
	})
	t.Run("version_mismatch", func(t *testing.T) {
		bad := *fp
		bad.Version = ArtifactVersion + 1
		_, err := bad.Predict(te)
		wantCode(t, err, ErrArtifactVersion)
		var buf bytes.Buffer
		if err := bad.Save(&buf); err != nil {
			t.Fatal(err)
		}
		_, err = LoadFittedPipeline(&buf)
		wantCode(t, err, ErrArtifactVersion)
	})
	t.Run("no_model", func(t *testing.T) {
		bad := *fp
		bad.Model = nil
		_, err := bad.Predict(te)
		wantCode(t, err, ErrArtifactModel)
	})
}

func TestPredictRecordsMetrics(t *testing.T) {
	src := `pipeline "obs"
dedup_values "cat"
onehot "cat"
khot "lst"
impute "num" strategy=median
train model=decision_tree target="y"
evaluate metric=auto
`
	tr, te := split(messyTable(300, 3), 5)
	ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 1}
	_, fp, err := ex.Fit(mustParse(t, src), tr, te)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	fp.Metrics = reg
	if _, err := fp.Predict(te); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("catdb_predict_rows_total").Value(); got != int64(te.NumRows()) {
		t.Fatalf("rows counter = %d, want %d", got, te.NumRows())
	}
	if reg.Counter("catdb_predict_batches_total").Value() != 1 {
		t.Fatal("batch counter not incremented")
	}
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"catdb_predict_seconds", "catdb_transform_stage_seconds"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("prom output missing %s", want)
		}
	}
}

// Structural corruption in a tree-ensemble artifact — a split on a
// feature the artifact does not have, an injected empty tree, a leaf
// whose width disagrees with the class count, or a split whose children
// are missing or shared — fails at load with ErrArtifactModel instead of
// scoring silently (or panicking) on the first Predict.
func TestLoadRejectsCorruptTreeModels(t *testing.T) {
	src := `pipeline "corrupt"
impute "num" strategy=median
dedup_values "cat"
onehot "cat"
khot "lst"
train model=%s target="y" trees=5
`
	corruptions := map[string]func(t *testing.T, fm *ml.FittedModel){
		"feature_999": func(t *testing.T, fm *ml.FittedModel) {
			for i := range fm.Trees[0] {
				if !fm.Trees[0][i].Leaf {
					fm.Trees[0][i].Feature = 999
					return
				}
			}
			t.Fatal("first tree has no split node to corrupt")
		},
		"empty_tree": func(t *testing.T, fm *ml.FittedModel) {
			fm.Trees = append(fm.Trees, []ml.FlatNode{})
		},
		"short_leaf": func(t *testing.T, fm *ml.FittedModel) {
			for i := range fm.Trees[0] {
				if n := &fm.Trees[0][i]; n.Leaf {
					n.Value = n.Value[:len(n.Value)-1]
					return
				}
			}
			t.Fatal("first tree has no leaf to corrupt")
		},
		"regression_classes": func(t *testing.T, fm *ml.FittedModel) {
			fm.Classes = 0
		},
		"shared_child": func(t *testing.T, fm *ml.FittedModel) {
			root := &fm.Trees[0][0]
			if root.Leaf {
				t.Fatal("first tree is a single leaf")
			}
			root.Right = root.Left
		},
		"missing_child": func(t *testing.T, fm *ml.FittedModel) {
			root := &fm.Trees[0][0]
			if root.Leaf {
				t.Fatal("first tree is a single leaf")
			}
			root.Left = -1
		},
	}
	for _, model := range []string{"random_forest", "extra_trees"} {
		tr, te := split(messyTable(300, 4), 5)
		ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 1}
		_, fp, err := ex.Fit(mustParse(t, fmt.Sprintf(src, model)), tr, te)
		if err != nil {
			t.Fatal(err)
		}
		var good bytes.Buffer
		if err := fp.Save(&good); err != nil {
			t.Fatal(err)
		}
		for name, corrupt := range corruptions {
			t.Run(model+"/"+name, func(t *testing.T) {
				bad, err := LoadFittedPipeline(bytes.NewReader(good.Bytes()))
				if err != nil {
					t.Fatalf("intact artifact: %v", err)
				}
				corrupt(t, bad.Model)
				var buf bytes.Buffer
				if err := bad.Save(&buf); err != nil {
					t.Fatal(err)
				}
				_, err = LoadFittedPipeline(&buf)
				var ae *ArtifactError
				if !errors.As(err, &ae) || ae.Code != ErrArtifactModel {
					t.Fatalf("load err = %v, want artifact error %s", err, ErrArtifactModel)
				}
			})
		}
	}
}

// Width corruption in a non-tree artifact — a weight, bias, scaler or
// stored-row slice whose length disagrees with the artifact's feature or
// class count, or a stored class label outside [0, Classes) — fails at
// load with ErrArtifactModel. Left unchecked, a short slice either
// panics inside Predict or scores silently wrong.
func TestLoadRejectsCorruptModelWidths(t *testing.T) {
	srcs := map[data.Task]string{
		data.Multiclass: `pipeline "widths"
impute "num" strategy=median
dedup_values "cat"
onehot "cat"
khot "lst"
train model=%s target="y"
`,
		data.Regression: `pipeline "widths"
impute "num" strategy=median
target_encode "cat"
train model=%s target="y"
`,
	}
	shortRow := func(m [][]float64, i int) { m[i] = m[i][:len(m[i])-1] }
	cases := []struct {
		model   string
		task    data.Task
		name    string
		corrupt func(fm *ml.FittedModel)
	}{
		{"logistic_regression", data.Multiclass, "short_bias", func(fm *ml.FittedModel) { fm.BC = fm.BC[:len(fm.BC)-1] }},
		{"logistic_regression", data.Multiclass, "short_weight_row", func(fm *ml.FittedModel) { shortRow(fm.WC, 1) }},
		{"logistic_regression", data.Multiclass, "short_scaler_std", func(fm *ml.FittedModel) {
			fm.Scaler.Std = fm.Scaler.Std[:len(fm.Scaler.Std)-1]
		}},
		{"logistic_regression", data.Multiclass, "short_scaler_pair", func(fm *ml.FittedModel) {
			fm.Scaler.Mean = fm.Scaler.Mean[:len(fm.Scaler.Mean)-1]
			fm.Scaler.Std = fm.Scaler.Std[:len(fm.Scaler.Std)-1]
		}},
		{"svm", data.Multiclass, "short_bias", func(fm *ml.FittedModel) { fm.BC = fm.BC[:len(fm.BC)-1] }},
		{"svm", data.Multiclass, "short_weight_row", func(fm *ml.FittedModel) { shortRow(fm.WC, 0) }},
		{"linear_regression", data.Regression, "short_weights", func(fm *ml.FittedModel) { fm.W = fm.W[:len(fm.W)-1] }},
		{"linear_regression", data.Regression, "short_scaler_pair", func(fm *ml.FittedModel) {
			fm.Scaler.Mean = fm.Scaler.Mean[:len(fm.Scaler.Mean)-1]
			fm.Scaler.Std = fm.Scaler.Std[:len(fm.Scaler.Std)-1]
		}},
		{"naive_bayes", data.Multiclass, "short_mean_row", func(fm *ml.FittedModel) { shortRow(fm.Mean, 0) }},
		{"naive_bayes", data.Multiclass, "short_vari_rows", func(fm *ml.FittedModel) { fm.Vari = fm.Vari[:len(fm.Vari)-1] }},
		{"knn", data.Multiclass, "short_stored_row", func(fm *ml.FittedModel) { shortRow(fm.X, 0) }},
		{"knn", data.Multiclass, "short_labels", func(fm *ml.FittedModel) { fm.Yc = fm.Yc[:len(fm.Yc)-1] }},
		{"knn", data.Multiclass, "label_out_of_range", func(fm *ml.FittedModel) { fm.Yc[0] = fm.Classes }},
		{"knn", data.Regression, "short_targets", func(fm *ml.FittedModel) { fm.Yr = fm.Yr[:len(fm.Yr)-1] }},
		{"tabpfn", data.Multiclass, "short_stored_row", func(fm *ml.FittedModel) { shortRow(fm.X, 0) }},
		{"tabpfn", data.Multiclass, "negative_label", func(fm *ml.FittedModel) { fm.Yc[0] = -1 }},
	}
	saved := map[string][]byte{}
	for _, tc := range cases {
		t.Run(tc.model+"/"+tc.name, func(t *testing.T) {
			key := tc.model + "/" + tc.task.String()
			if saved[key] == nil {
				tab := messyTable(300, 4)
				if tc.task == data.Regression {
					tab = messyRegTable(300, 4)
				}
				tr, te := split(tab, 5)
				ex := &Executor{Target: "y", Task: tc.task, Seed: 1}
				_, fp, err := ex.Fit(mustParse(t, fmt.Sprintf(srcs[tc.task], tc.model)), tr, te)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := fp.Save(&buf); err != nil {
					t.Fatal(err)
				}
				saved[key] = buf.Bytes()
			}
			bad, err := LoadFittedPipeline(bytes.NewReader(saved[key]))
			if err != nil {
				t.Fatalf("intact artifact: %v", err)
			}
			tc.corrupt(bad.Model)
			var buf bytes.Buffer
			if err := bad.Save(&buf); err != nil {
				t.Fatal(err)
			}
			_, err = LoadFittedPipeline(&buf)
			var ae *ArtifactError
			if !errors.As(err, &ae) || ae.Code != ErrArtifactModel {
				t.Fatalf("load err = %v, want artifact error %s", err, ErrArtifactModel)
			}
		})
	}
}

// A serving batch whose source column arrives with the other kind
// (numeric vs string) than the fit saw fails with ErrStepFailed: the
// step's row loop would otherwise index a slab the column does not have.
func TestPredictRejectsWrongKindColumn(t *testing.T) {
	src := `pipeline "kinds"
impute "num" strategy=median
scale "num" method=standard
dedup_values "cat"
onehot "cat"
khot "lst"
train model=decision_tree target="y"
`
	tr, te := split(messyTable(200, 2), 5)
	ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 1}
	_, fp, err := ex.Fit(mustParse(t, src), tr, te)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"num", "cat"} {
		batch := messyTable(20, 3)
		batch.DropColumn("y")
		vals := make([]string, batch.NumRows())
		flipped := data.NewString(name, vals)
		if name == "cat" {
			flipped = data.NewNumeric(name, make([]float64, batch.NumRows()))
		}
		batch.DropColumn(name)
		batch.MustAddColumn(flipped)
		_, err := fp.Predict(batch)
		var ae *ArtifactError
		if !errors.As(err, &ae) || ae.Code != ErrStepFailed {
			t.Fatalf("%s flipped: predict err = %v, want artifact error %s", name, err, ErrStepFailed)
		}
	}
}

// The artifact's task picks the scorer and its class labels name the
// model's class indices, so a task or label vocabulary that disagrees
// with the model fails at load with ErrArtifactModel.
func TestLoadRejectsTaskModelMismatch(t *testing.T) {
	src := `pipeline "task"
impute "num" strategy=median
onehot "cat"
khot "lst"
train model=random_forest target="y" trees=3
`
	tr, te := split(messyTable(200, 6), 5)
	ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 1}
	_, fp, err := ex.Fit(mustParse(t, src), tr, te)
	if err != nil {
		t.Fatal(err)
	}
	corruptions := map[string]func(fp *FittedPipeline){
		"dropped_label":   func(fp *FittedPipeline) { fp.Classes = fp.Classes[:len(fp.Classes)-1] },
		"regression_task": func(fp *FittedPipeline) { fp.Task = data.Regression.String() },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			var good bytes.Buffer
			if err := fp.Save(&good); err != nil {
				t.Fatal(err)
			}
			bad, err := LoadFittedPipeline(&good)
			if err != nil {
				t.Fatalf("intact artifact: %v", err)
			}
			corrupt(bad)
			var buf bytes.Buffer
			if err := bad.Save(&buf); err != nil {
				t.Fatal(err)
			}
			_, err = LoadFittedPipeline(&buf)
			var ae *ArtifactError
			if !errors.As(err, &ae) || ae.Code != ErrArtifactModel {
				t.Fatalf("load err = %v, want artifact error %s", err, ErrArtifactModel)
			}
		})
	}
}
