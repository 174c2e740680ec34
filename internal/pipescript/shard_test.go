package pipescript

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"catdb/internal/data"
)

// These tests pin execution results across pool widths. Op row loops
// run serially in the caller, but model fits, inference and the
// profiler fan out over a GOMAXPROCS-wide pool, so every program must
// produce bit-identical results and errors at any width.

// procsSweep is the set of pool widths (GOMAXPROCS) every equivalence
// test runs against the GOMAXPROCS=1 baseline.
var procsSweep = []int{1, 2, 8}

// setProcs sets the pool width (GOMAXPROCS) until the end of the test;
// cleanups restore in reverse order, so the original comes back however
// often it is called.
func setProcs(t testing.TB, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// execShardWays runs the program at GOMAXPROCS=1 (the baseline) and then
// across procsSweep, requiring bit-identical results and errors
// everywhere.
func execShardWays(t *testing.T, src string, mk func() (*data.Table, *data.Table), target string, task data.Task) (*Result, error) {
	t.Helper()
	p := mustParse(t, src)
	tr, te := mk()
	setProcs(t, 1)
	base := &Executor{Target: target, Task: task, Seed: 1, AllowNoTrain: true}
	wantRes, wantErr := base.Execute(p, tr, te)
	for _, w := range procsSweep {
		tr, te := mk()
		setProcs(t, w)
		ex := &Executor{Target: target, Task: task, Seed: 1, AllowNoTrain: true}
		gotRes, gotErr := ex.Execute(p, tr, te)
		label := fmt.Sprintf("GOMAXPROCS=%d", w)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: baseline err=%v got err=%v", label, wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("%s: error mismatch\nbaseline: %v\ngot:      %v", label, wantErr, gotErr)
			}
			continue
		}
		a, b := *wantRes, *gotRes
		a.Program, b.Program = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: result mismatch\nbaseline: %+v\ngot:      %+v", label, a, b)
		}
	}
	return wantRes, wantErr
}

func TestShardMatchesSerialFullPipeline(t *testing.T) {
	mk := func() (*data.Table, *data.Table) { return split(messyTable(600, 1), 7) }
	res, err := execShardWays(t, `pipeline "full"
impute "num" strategy=median
dedup_values "cat"
onehot "cat"
khot "lst"
winsorize "num" lower=0.05 upper=0.95
log_transform "num"
scale "num" method=standard
train model=random_forest target="y" trees=15
evaluate metric=auto
`, mk, "y", data.Multiclass)
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAUC <= 0 {
		t.Fatalf("expected a trained model, got %+v", res)
	}
}

func TestShardMatchesSerialEncodersAndBarriers(t *testing.T) {
	mk := func() (*data.Table, *data.Table) { return split(messyTable(500, 3), 5) }
	execShardWays(t, `pipeline "mixed"
dedup_values "cat"
hash_encode "cat" buckets=16
impute "num" strategy=mean
impute_all strategy=auto
bin_numeric "num" bins=4
clip_outliers "num" method=iqr factor=2.0
remove_outliers "num" method=iqr factor=4.0
drop_constant
train model=gbm target="y" rounds=8
`, mk, "y", data.Multiclass)
}

func TestShardMatchesSerialRegression(t *testing.T) {
	mk := func() (*data.Table, *data.Table) {
		n := 400
		rng := rand.New(rand.NewSource(9))
		a := make([]float64, n)
		b := make([]float64, n)
		addr := make([]string, n)
		y := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.Float64() * 10
			addr[i] = fmt.Sprintf("%d zone%d", 100+i%90, i%4)
			y[i] = 3*a[i] - b[i] + rng.NormFloat64()*0.1
		}
		tab := data.NewTable("reg")
		tab.MustAddColumn(data.NewNumeric("a", a))
		tab.MustAddColumn(data.NewNumeric("b", b))
		tab.MustAddColumn(data.NewString("addr", addr))
		tab.MustAddColumn(data.NewNumeric("y", y))
		return split(tab, 11)
	}
	execShardWays(t, `pipeline "reg"
split_composite "addr"
ordinal "addr_part"
target_encode "addr_num"
interaction "a" "b" op=product
log_transform "b"
scale "a" method=minmax
train model=linear_regression target="y"
`, mk, "y", data.Regression)
}

// Execution over CoW view inputs: SelectRows produces row-mapped views
// sharing slabs with the source; the first write to a column gathers it
// privately, so the source table is untouched at any pool width.
func TestShardMatchesSerialOnCoWViews(t *testing.T) {
	source := messyTable(700, 6)
	mk := func() (*data.Table, *data.Table) {
		rows := make([]int, 0, 500)
		for i := 0; i < 500; i++ {
			rows = append(rows, (i*7)%700)
		}
		return split(source.SelectRows(rows), 13)
	}
	execShardWays(t, `pipeline "cow"
impute "num" strategy=median
dedup_values "cat"
onehot "cat"
scale "num" method=standard
train model=naive_bayes target="y"
`, mk, "y", data.Multiclass)
	// The shared source must not have absorbed any pipeline writes.
	if source.Col("num").MissingCount() == 0 {
		t.Fatal("source table mutated: injected missing cells disappeared")
	}
	if source.Col("cat").DistinctCount() <= 3 {
		t.Fatal("source table mutated: dirty categories were deduplicated in place")
	}
}

// Error-carrying pipelines must raise the identical first error (same
// line, code, message) at any pool width.
func TestShardMatchesSerialErrors(t *testing.T) {
	for _, src := range []string{
		"pipeline \"e\"\nimpute \"nope\" strategy=median\ntrain target=\"y\"\n",
		"pipeline \"e\"\nscale \"cat\"\nscale \"lst\"\ntrain target=\"y\"\n",
		"pipeline \"e\"\nonehot \"cat\"\nscale \"lst\" method=standard\nkhot \"num\"\ntrain target=\"y\"\n",
		"pipeline \"e\"\nrequire \"pandas\"\nimpute \"num\"\ntrain target=\"y\"\n",
		"pipeline \"e\"\ndrop \"y\"\ntrain target=\"y\"\n",
	} {
		mk := func() (*data.Table, *data.Table) { return split(messyTable(200, 2), 3) }
		if _, err := execShardWays(t, src, mk, "y", data.Multiclass); err == nil {
			t.Fatalf("expected an error from %q", src)
		}
	}
}

// The one-hot feature-cap check must fire with the same error at the
// same line at any pool width: the 0.7 split keeps 4200 distinct
// categories, over the 4096 cap.
func TestShardMatchesSerialFeatureCap(t *testing.T) {
	mk := func() (*data.Table, *data.Table) {
		n := 6000
		vals := make([]string, n)
		num := make([]float64, n)
		y := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprintf("cat_%04d", i) // all distinct
			num[i] = float64(i % 7)
			y[i] = []string{"a", "b"}[i%2]
		}
		tab := data.NewTable("cap")
		tab.MustAddColumn(data.NewString("wide", vals))
		tab.MustAddColumn(data.NewNumeric("num", num))
		tab.MustAddColumn(data.NewString("y", y))
		return split(tab, 1)
	}
	_, err := execShardWays(t, `pipeline "cap"
impute "num" strategy=median
onehot "wide" max_categories=5000
train target="y"
`, mk, "y", data.Binary)
	if err == nil || !strings.Contains(err.Error(), "would exceed") {
		t.Fatalf("expected the feature-cap error, got %v", err)
	}
}

// Fitted artifacts must serialize byte-identically at any pool width.
func TestShardFitArtifactIdentical(t *testing.T) {
	src := `pipeline "fit"
impute "num" strategy=median
dedup_values "cat"
onehot "cat"
khot "lst"
scale "num" method=standard
train model=random_forest target="y" trees=10
`
	p := mustParse(t, src)
	tr, te := split(messyTable(400, 5), 9)
	setProcs(t, 1)
	base := &Executor{Target: "y", Task: data.Multiclass, Seed: 2}
	_, wantFP, err := base.Fit(p, tr, te)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(wantFP)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range procsSweep {
		setProcs(t, w)
		ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 2}
		_, gotFP, err := ex.Fit(p, tr, te)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(gotFP)
		if err != nil {
			t.Fatal(err)
		}
		if string(want) != string(got) {
			t.Fatalf("GOMAXPROCS=%d: artifact differs\nbaseline: %s\ngot:      %s", w, want, got)
		}
	}
}

// Randomized programs: every pool width must reproduce the GOMAXPROCS=1
// execution (results and errors) whatever the program shape.
func TestShardPropertyRandomPrograms(t *testing.T) {
	mk := func() (*data.Table, *data.Table) {
		n := 240
		rng := rand.New(rand.NewSource(42))
		alpha := make([]float64, n)
		beta := make([]float64, n)
		gamma := make([]string, n)
		delta := make([]string, n)
		y := make([]string, n)
		for i := 0; i < n; i++ {
			alpha[i] = rng.NormFloat64()
			beta[i] = float64(i % 5)
			gamma[i] = []string{"x", "y", "z"}[i%3]
			delta[i] = []string{"p", "q"}[i%2]
			y[i] = []string{"no", "yes"}[i%2]
		}
		tab := data.NewTable("prop")
		tab.MustAddColumn(data.NewNumeric("alpha", alpha))
		tab.MustAddColumn(data.NewNumeric("beta", beta))
		tab.MustAddColumn(data.NewString("gamma", gamma))
		tab.MustAddColumn(data.NewString("delta", delta))
		tab.MustAddColumn(data.NewString("y", y))
		for i := 0; i < n; i += 13 {
			tab.Col("alpha").SetMissing(i)
		}
		return split(tab, 17)
	}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := genProgram(rng)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			execShardWays(t, src, mk, "y", data.Binary)
		})
	}
}

// The serving path: Transform and Predict must be bit-identical at any
// pool width.
func TestServingShardIdentical(t *testing.T) {
	src := `pipeline "serve"
impute "num" strategy=median
dedup_values "cat"
onehot "cat"
khot "lst"
scale "num" method=standard
train model=random_forest target="y" trees=10
`
	p := mustParse(t, src)
	tr, te := split(messyTable(500, 8), 3)
	ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 4}
	_, fp, err := ex.Fit(p, tr, te)
	if err != nil {
		t.Fatal(err)
	}
	batch := messyTable(400, 9)
	batch.DropColumn("y")

	setProcs(t, 1)
	wantT, err := fp.Transform(batch)
	if err != nil {
		t.Fatal(err)
	}
	wantP, err := fp.Predict(batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range procsSweep {
		setProcs(t, w)
		gotT, err := fp.Transform(batch)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("GOMAXPROCS=%d", w)
		if got, want := gotT.ColumnNames(), wantT.ColumnNames(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: transformed columns %v, want %v", label, got, want)
		}
		for _, name := range wantT.ColumnNames() {
			wc, gc := wantT.Col(name), gotT.Col(name)
			for i := 0; i < wc.Len(); i++ {
				if wc.ValueString(i) != gc.ValueString(i) || wc.IsMissing(i) != gc.IsMissing(i) {
					t.Fatalf("%s: column %q row %d differs (%q vs %q)",
						label, name, i, wc.ValueString(i), gc.ValueString(i))
				}
			}
		}
		gotP, err := fp.Predict(batch)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantP, gotP) {
			t.Fatalf("%s: predictions differ", label)
		}
	}
}

// A serving step failure surfaces as the first failing step in step
// order (step index, op, wrapped error) at any pool width.
func TestServingStepErrorIdentical(t *testing.T) {
	fp := &FittedPipeline{
		Version: ArtifactVersion,
		Steps: []FittedStep{
			{Op: "impute", Col: "a", Num: 1},
			{Op: "no_such_op", Col: "b"},
			{Op: "no_such_op", Col: "c"},
		},
	}
	tab := data.NewTable("t")
	tab.MustAddColumn(data.NewNumeric("a", []float64{1, 2}))
	tab.MustAddColumn(data.NewNumeric("b", []float64{1, 2}))
	tab.MustAddColumn(data.NewNumeric("c", []float64{1, 2}))
	const want = `pipescript: artifact error [E_STEP_FAILED]: step 1 (no_such_op on "b"): unknown fitted step "no_such_op"`
	for _, w := range procsSweep {
		setProcs(t, w)
		_, err := fp.Transform(tab)
		if err == nil || err.Error() != want {
			t.Fatalf("GOMAXPROCS=%d: got error %v, want %s", w, err, want)
		}
	}
}
