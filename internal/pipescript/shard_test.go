package pipescript

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"catdb/internal/data"
	"catdb/internal/obs"
)

// The shard sweep every equivalence test covers: chunk sizes from
// pathological (every row its own task) through default-ish to
// never-shards, crossed with pool sizes.
var (
	shardRowsSweep    = []int{1, 7, 4096, 1 << 30}
	shardWorkersSweep = []int{1, 2, 8}
)

// execShardWays runs the program with row sharding disabled (the serial
// baseline) and then across the full (shardRows, workers) sweep,
// requiring bit-identical results and errors everywhere.
func execShardWays(t *testing.T, src string, mk func() (*data.Table, *data.Table), target string, task data.Task) (*Result, error) {
	t.Helper()
	p := mustParse(t, src)
	tr, te := mk()
	base := &Executor{Target: target, Task: task, Seed: 1, AllowNoTrain: true, ShardRows: -1, Workers: 1}
	wantRes, wantErr := base.Execute(p, tr, te)
	for _, sr := range shardRowsSweep {
		for _, w := range shardWorkersSweep {
			tr, te := mk()
			ex := &Executor{Target: target, Task: task, Seed: 1, AllowNoTrain: true, ShardRows: sr, Workers: w}
			gotRes, gotErr := ex.Execute(p, tr, te)
			label := fmt.Sprintf("shardRows=%d workers=%d", sr, w)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s: baseline err=%v sharded err=%v", label, wantErr, gotErr)
			}
			if wantErr != nil {
				if wantErr.Error() != gotErr.Error() {
					t.Fatalf("%s: error mismatch\nbaseline: %v\nsharded:  %v", label, wantErr, gotErr)
				}
				continue
			}
			a, b := *wantRes, *gotRes
			a.Program, b.Program = nil, nil
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: result mismatch\nbaseline: %+v\nsharded:  %+v", label, a, b)
			}
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

// Shard execution over CoW view inputs: SelectRows produces row-mapped
// views sharing slabs with the source; BeginShardWrite must gather them
// privately so the source table is untouched and results match serial.
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
// line, code, message) at any shard setting, sharded or not.
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
// same line at any shard setting: the 0.7 split keeps 4200 distinct
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

// Fitted artifacts must serialize byte-identically at any shard setting.
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
	base := &Executor{Target: "y", Task: data.Multiclass, Seed: 2, ShardRows: -1}
	_, wantFP, err := base.Fit(p, tr, te)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(wantFP)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range shardRowsSweep {
		for _, w := range shardWorkersSweep {
			ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 2, ShardRows: sr, Workers: w}
			_, gotFP, err := ex.Fit(p, tr, te)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(gotFP)
			if err != nil {
				t.Fatal(err)
			}
			if string(want) != string(got) {
				t.Fatalf("shardRows=%d workers=%d: artifact differs\nbaseline: %s\nsharded:  %s", sr, w, want, got)
			}
		}
	}
}

// Randomized programs: row sharding must reproduce serial execution
// (results and errors) whatever the program shape.
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

// Shard task counters depend only on (row count, shardRows) — never on
// the worker count — so observability stays deterministic under any
// parallelism.
func TestShardMetricsDeterministic(t *testing.T) {
	src := `pipeline "m"
impute "num" strategy=median
dedup_values "cat"
onehot "cat"
khot "lst"
scale "num" method=standard
train model=naive_bayes target="y"
`
	p := mustParse(t, src)
	counters := func(w int) map[string]int64 {
		tr, te := split(messyTable(900, 4), 5)
		reg := obs.NewRegistry()
		ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 1, ShardRows: 64, Workers: w, Metrics: reg}
		if _, err := ex.Execute(p, tr, te); err != nil {
			t.Fatal(err)
		}
		return map[string]int64{
			"impute": reg.Counter("catdb_shard_tasks_total", "op", "impute").Value(),
			"dedup":  reg.Counter("catdb_shard_tasks_total", "op", "dedup_values").Value(),
			"onehot": reg.Counter("catdb_shard_tasks_total", "op", "onehot").Value(),
			"scale":  reg.Counter("catdb_shard_tasks_total", "op", "scale").Value(),
			"matrix": reg.Counter("catdb_shard_tasks_total", "op", "matrix").Value(),
		}
	}
	want := counters(1)
	for op, v := range want {
		if v == 0 {
			t.Fatalf("op %s recorded no shard tasks at shardRows=64: %+v", op, want)
		}
	}
	for _, w := range shardWorkersSweep[1:] {
		if got := counters(w); !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: shard task counters diverge\nwant %+v\ngot  %+v", w, want, got)
		}
	}
	// Sharding disabled must record nothing.
	tr, te := split(messyTable(900, 4), 5)
	reg := obs.NewRegistry()
	ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 1, ShardRows: -1, Workers: 4, Metrics: reg}
	if _, err := ex.Execute(p, tr, te); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("catdb_shard_tasks_total", "op", "impute").Value(); got != 0 {
		t.Fatalf("ShardRows=-1 still recorded %d shard tasks", got)
	}
}

// Every registered op carries a sharding class consistent with its pure
// flag, and the elementwise set is exactly the ops whose handlers route
// row loops through the sharder.
func TestOpShardClasses(t *testing.T) {
	elementwise := map[string]bool{
		"impute": true, "impute_all": true, "clip_outliers": true, "scale": true,
		"onehot": true, "khot": true, "hash_encode": true, "ordinal": true,
		"split_composite": true, "extract_token": true, "dedup_values": true,
		"bin_numeric": true, "log_transform": true, "interaction": true,
		"winsorize": true, "target_encode": true,
	}
	seen := 0
	for name, spec := range opRegistry {
		switch spec.class {
		case opPure, opElementwise, opStatefulFit, opWholeTable:
		default:
			t.Fatalf("op %q has an invalid shard class %d", name, spec.class)
		}
		if spec.pure != (spec.class == opPure) {
			t.Fatalf("op %q: pure=%v but class=%d", name, spec.pure, spec.class)
		}
		if elementwise[name] != (spec.class == opElementwise) {
			t.Fatalf("op %q: elementwise classification mismatch (class=%d)", name, spec.class)
		}
		if spec.class == opElementwise {
			seen++
		}
	}
	if seen != len(elementwise) {
		t.Fatalf("expected %d elementwise ops, registry has %d", len(elementwise), seen)
	}
}

// The serving path: Transform and Predict must be bit-identical across
// shard settings and worker counts.
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

	fp.ShardRows, fp.Workers = -1, 1
	wantT, err := fp.Transform(batch)
	if err != nil {
		t.Fatal(err)
	}
	wantP, err := fp.Predict(batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range shardRowsSweep {
		for _, w := range shardWorkersSweep {
			fp.ShardRows, fp.Workers = sr, w
			gotT, err := fp.Transform(batch)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("shardRows=%d workers=%d", sr, w)
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
}

// A serving step failure surfaces as the first failing step in step
// order (step index, op, wrapped error) at any shard setting.
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
	for _, sr := range shardRowsSweep {
		for _, w := range shardWorkersSweep {
			fp.ShardRows, fp.Workers = sr, w
			_, err := fp.Transform(tab)
			if err == nil || err.Error() != want {
				t.Fatalf("shardRows=%d workers=%d: got error %v, want %s", sr, w, err, want)
			}
		}
	}
}
