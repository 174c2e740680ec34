package pipescript

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"catdb/internal/data"
)

// fuzzBatch is the serving batch every fuzzed artifact scores: the raw
// feature columns of both seed tables (messyTable's num/cat/lst plus
// messyRegTable's num2), without labels.
func fuzzBatch() *data.Table {
	t := messyTable(40, 11)
	t.DropColumn("y")
	t.MustAddColumn(messyRegTable(40, 11).Col("num2"))
	return t
}

// fuzzSeeds fits one small pipeline per model kind the fit path emits
// (regression and classification variants where a kind has both) and
// returns the saved artifacts, each of which scores fuzzBatch. Between
// them the pipelines record every fitted step kind.
func fuzzSeeds(f *testing.F) [][]byte {
	clf := `pipeline "seed"
impute "num" strategy=median
dedup_values "cat"
onehot "cat"
khot "lst"
scale "num" method=standard
train model=%s target="y" trees=3 rounds=3
`
	clfText := `pipeline "seed"
impute "num" strategy=median
extract_token "cat"
ordinal "cat"
split_composite "lst"
hash_encode "lst_part" buckets=4
drop "lst_code"
clip_outliers "num" factor=1.5
train model=%s target="y"
`
	reg := `pipeline "seed"
impute "num" strategy=median
target_encode "cat"
winsorize "num2" lower=0.05 upper=0.95
interaction "num" "num2" op=ratio
bin_numeric "num2" bins=4
log_transform "num"
train model=%s target="y" trees=3 rounds=3
`
	cases := []struct {
		src, model string
		task       data.Task
	}{
		{clf, "random_forest", data.Multiclass},
		{clf, "extra_trees", data.Multiclass},
		{clf, "decision_tree", data.Multiclass},
		{clf, "gbm", data.Multiclass},
		{clf, "knn", data.Multiclass},
		{clfText, "logistic_regression", data.Multiclass},
		{clfText, "naive_bayes", data.Multiclass},
		{clfText, "svm", data.Multiclass},
		{clfText, "tabpfn", data.Multiclass},
		{reg, "random_forest", data.Regression},
		{reg, "extra_trees", data.Regression},
		{reg, "gbm", data.Regression},
		{reg, "knn", data.Regression},
		{reg, "linear_regression", data.Regression},
	}
	var seeds [][]byte
	for _, tc := range cases {
		tab := messyTable(60, 3)
		if tc.task == data.Regression {
			tab = messyRegTable(60, 3)
		}
		tr, te := split(tab, 1)
		ex := &Executor{Target: "y", Task: tc.task, Seed: 1}
		p, err := Parse(fmt.Sprintf(tc.src, tc.model))
		if err != nil {
			f.Fatal(err)
		}
		_, fp, err := ex.Fit(p, tr, te)
		if err != nil {
			f.Fatalf("%s: %v", tc.model, err)
		}
		// A seed that cannot score the batch would only exercise the
		// error paths.
		if _, err := fp.Predict(fuzzBatch()); err != nil {
			f.Fatalf("%s: seed artifact does not score the batch: %v", tc.model, err)
		}
		var buf bytes.Buffer
		if err := fp.Save(&buf); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	return seeds
}

// FuzzLoadFittedPipeline feeds arbitrary bytes to LoadFittedPipeline
// and scores fuzzBatch with whatever loads. Fitted artifacts are
// untrusted input: the outcome must be an error or predictions for
// every batch row, never a panic, and a loaded artifact must fail only
// with an *ArtifactError.
func FuzzLoadFittedPipeline(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	batch := fuzzBatch()
	f.Fuzz(func(t *testing.T, blob []byte) {
		fp, err := LoadFittedPipeline(bytes.NewReader(blob))
		if err != nil {
			return
		}
		pred, err := fp.Predict(batch)
		if err != nil {
			var ae *ArtifactError
			if !errors.As(err, &ae) {
				t.Fatalf("Predict error %v is not an *ArtifactError", err)
			}
			return
		}
		if pred.Rows != batch.NumRows() {
			t.Fatalf("scored %d rows of a %d-row batch", pred.Rows, batch.NumRows())
		}
	})
}
