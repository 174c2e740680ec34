package pipescript

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"catdb/internal/data"
	"catdb/internal/obs"
)

// The TestDAG* names below date from the statement-DAG scheduler these
// tests once compared against linear execution. With one execution path
// left, they pin what that comparison guarded on it: a traced run (one
// "stmt" span per statement) at any worker count reproduces the
// untraced single-worker run bit for bit, results and errors alike.

// linearWorkerCounts are the pool sizes every equivalence test sweeps.
var linearWorkerCounts = []int{1, 2, 4, 8}

// execBothWays runs the program untraced on one worker, then traced at
// every worker count, and requires bit-identical results and errors
// plus one stmt span per executed statement.
func execBothWays(t *testing.T, src string, tr, te *data.Table, target string, task data.Task) (*Result, error) {
	t.Helper()
	p := mustParse(t, src)
	setProcs(t, 1)
	base := &Executor{Target: target, Task: task, Seed: 1, AllowNoTrain: true}
	wantRes, wantErr := base.Execute(p, tr, te)
	for _, w := range linearWorkerCounts {
		tracer := obs.New()
		setProcs(t, w)
		ex := &Executor{Target: target, Task: task, Seed: 1, AllowNoTrain: true, Span: tracer.Root("exec")}
		gotRes, gotErr := ex.Execute(p, tr, te)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("workers=%d: untraced err=%v traced err=%v", w, wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("workers=%d: error mismatch\nuntraced: %v\ntraced:   %v", w, wantErr, gotErr)
			}
			if tracer.Len() < 2 {
				t.Fatalf("workers=%d: failing run recorded no stmt span", w)
			}
			continue
		}
		if got, want := tracer.Len(), 1+len(p.Stmts); got != want {
			t.Fatalf("workers=%d: %d spans, want exec + %d stmt", w, got, len(p.Stmts))
		}
		a, b := *wantRes, *gotRes
		a.Program, b.Program = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("workers=%d: result mismatch\nuntraced: %+v\ntraced:   %+v", w, a, b)
		}
	}
	return wantRes, wantErr
}

func TestDAGMatchesLinearWidePipeline(t *testing.T) {
	tr, te := split(messyTable(600, 1), 7)
	res, err := execBothWays(t, `pipeline "wide"
impute "num" strategy=median
dedup_values "cat"
onehot "cat"
khot "lst"
winsorize "num" lower=0.05 upper=0.95
log_transform "num"
scale "num" method=standard
train model=random_forest target="y" trees=15
evaluate metric=auto
`, tr, te, "y", data.Binary)
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAUC <= 0 {
		t.Fatalf("expected a trained model, got %+v", res)
	}
}

func TestDAGMatchesLinearEncodersAndBarriers(t *testing.T) {
	tr, te := split(messyTable(500, 3), 5)
	execBothWays(t, `pipeline "mixed"
dedup_values "cat"
hash_encode "cat" buckets=16
impute "num" strategy=mean
impute_all strategy=auto
bin_numeric "num" bins=4
drop_constant
train model=gbm target="y" rounds=8
`, tr, te, "y", data.Multiclass)
}

func TestDAGMatchesLinearRegression(t *testing.T) {
	n := 400
	rng := rand.New(rand.NewSource(9))
	a := make([]float64, n)
	b := make([]float64, n)
	y := make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.Float64() * 10
		y[i] = 3*a[i] - b[i] + rng.NormFloat64()*0.1
	}
	tab := data.NewTable("reg")
	tab.MustAddColumn(data.NewNumeric("a", a))
	tab.MustAddColumn(data.NewNumeric("b", b))
	tab.MustAddColumn(data.NewNumeric("y", y))
	tr, te := split(tab, 11)
	execBothWays(t, `pipeline "reg"
interaction "a" "b" op=product
log_transform "b"
scale "a" method=minmax
train model=linear_regression target="y"
`, tr, te, "y", data.Regression)
}

// Errors must surface identically, and the statements run before the
// failing one still leave their spans.
func TestDAGMatchesLinearErrors(t *testing.T) {
	for _, src := range []string{
		"pipeline \"e\"\nimpute \"nope\" strategy=median\ntrain target=\"y\"\n",
		"pipeline \"e\"\nscale \"cat\"\nscale \"lst\"\ntrain target=\"y\"\n",
		"pipeline \"e\"\nonehot \"cat\"\nscale \"lst\" method=standard\nkhot \"num\"\ntrain target=\"y\"\n",
		"pipeline \"e\"\nrequire \"pandas\"\nimpute \"num\"\ntrain target=\"y\"\n",
		"pipeline \"e\"\ndrop \"y\"\ntrain target=\"y\"\n",
	} {
		tr, te := split(messyTable(200, 2), 3)
		if _, err := execBothWays(t, src, tr, te, "y", data.Multiclass); err == nil {
			t.Fatalf("expected an error from %q", src)
		}
	}
}

// Fitted artifacts must serialize byte-identically whether or not the
// fit was traced and at any worker count.
func TestDAGFitArtifactIdentical(t *testing.T) {
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
	for _, w := range linearWorkerCounts {
		setProcs(t, w)
		ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 2, Span: obs.New().Root("fit")}
		_, gotFP, err := ex.Fit(p, tr, te)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(gotFP)
		if err != nil {
			t.Fatal(err)
		}
		if string(want) != string(got) {
			t.Fatalf("workers=%d: artifact differs\nuntraced: %s\ntraced:   %s", w, want, got)
		}
	}
}

// Randomized programs over a mixed-type table: traced execution must
// reproduce untraced execution (results and errors) at every worker
// count, whatever the program shape.
func TestDAGPropertyRandomPrograms(t *testing.T) {
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
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := genProgram(rng)
		tr, te := mk()
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			execBothWays(t, src, tr, te, "y", data.Binary)
		})
	}
}
