package pipescript

import (
	"math"
	"testing"

	"catdb/internal/data"
)

// Every op that rewrites column cells must leave the memoized summaries
// consistent with a from-scratch recompute (a Clone starts with an empty
// cache). Invalidation is automatic now — the setters bump the version —
// but warming the cache before each op keeps these tests honest: a write
// path that bypassed the accessors would only show up against a warm
// cache.

func warmStats(cols ...*data.Column) {
	for _, c := range cols {
		_ = c.MissingCount()
		_ = c.DistinctCount()
		if c.Kind.IsNumeric() {
			_ = c.NumericStats()
		}
	}
}

func assertSummaryFresh(t *testing.T, c *data.Column, ctx string) {
	t.Helper()
	fresh := c.Clone()
	if got, want := c.MissingCount(), fresh.MissingCount(); got != want {
		t.Errorf("%s: MissingCount = %d, fresh recompute = %d (stale summary)", ctx, got, want)
	}
	if got, want := c.DistinctCount(), fresh.DistinctCount(); got != want {
		t.Errorf("%s: DistinctCount = %d, fresh recompute = %d (stale summary)", ctx, got, want)
	}
	got, want := c.NumericStats(), fresh.NumericStats()
	same := func(x, y float64) bool {
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	if got.Count != want.Count || !same(got.Mean, want.Mean) || !same(got.Min, want.Min) ||
		!same(got.Max, want.Max) || !same(got.Median, want.Median) {
		t.Errorf("%s: NumericStats = %+v, fresh recompute = %+v (stale summary)", ctx, got, want)
	}
}

func numColWithMissing() *data.Column {
	c := data.NewNumeric("x", []float64{1, 50, 3, 4, 5, 6, 7, 8})
	c.SetMissing(2)
	return c
}

func TestImputeInvalidatesSummary(t *testing.T) {
	c := numColWithMissing()
	warmStats(c)
	num, str, err := imputeValue(c, "median")
	if err != nil {
		t.Fatal(err)
	}
	applyImpute(c, num, str)
	if c.MissingCount() != 0 {
		t.Fatal("impute left missing count stale")
	}
	assertSummaryFresh(t, c, "applyImpute")
}

func TestClipInvalidatesSummary(t *testing.T) {
	c := numColWithMissing()
	warmStats(c)
	clipColumn(c, 2, 6)
	if got := c.NumericStats().Max; got != 6 {
		t.Fatalf("max after clip = %g, want 6 (stale summary)", got)
	}
	assertSummaryFresh(t, c, "clipColumn")
}

func TestScaleInvalidatesSummary(t *testing.T) {
	c := numColWithMissing()
	warmStats(c)
	sp, err := fitScale(c, "standard")
	if err != nil {
		t.Fatal(err)
	}
	sp.apply(c)
	if got := c.NumericStats().Mean; math.Abs(got) > 1e-9 {
		t.Fatalf("mean after standard scale = %g, want ~0 (stale summary)", got)
	}
	assertSummaryFresh(t, c, "scale")
}

func TestExtractTokenInvalidatesSummary(t *testing.T) {
	c := data.NewString("s", []string{"red car fast", "blue car slow", "red car fast"})
	warmStats(c)
	extractToken(c)
	assertSummaryFresh(t, c, "extractToken")
}

func TestApplyMappingInvalidatesSummary(t *testing.T) {
	c := data.NewString("s", []string{"RED", "red", "blue"})
	warmStats(c)
	ApplyValueMapping(c, map[string]string{"RED": "red"})
	if got := c.DistinctCount(); got != 2 {
		t.Fatalf("distinct after mapping = %d, want 2 (stale summary)", got)
	}
	assertSummaryFresh(t, c, "applyMapping")
}

func TestSplitCompositeInvalidatesSummary(t *testing.T) {
	tab := data.NewTable("t")
	tab.MustAddColumn(data.NewString("code", []string{"ab 1", "cd 2", "ab 3"}))
	warmStats(tab.Col("code"))
	if err := splitComposite(tab, "code", "code_part", "code_num"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"code_part", "code_num"} {
		c := tab.Col(name)
		if c == nil {
			t.Fatalf("split column %q missing", name)
		}
		assertSummaryFresh(t, c, "splitComposite "+name)
	}
}

func TestRebalanceInvalidatesSummary(t *testing.T) {
	tab := data.NewTable("t")
	n := 60
	x := make([]float64, n)
	y := make([]string, n)
	for i := range x {
		x[i] = float64(i % 5)
		if i < 50 {
			y[i] = "maj"
		} else {
			y[i] = "min"
		}
	}
	tab.MustAddColumn(data.NewNumeric("x", x))
	tab.MustAddColumn(data.NewString("y", y))
	warmStats(tab.Col("x"), tab.Col("y"))
	if err := rebalanceADASYN(tab, "y", 3); err != nil {
		t.Fatal(err)
	}
	for _, c := range tab.Cols {
		assertSummaryFresh(t, c, "rebalanceADASYN "+c.Name)
	}
}

func TestAugmentRegressionInvalidatesSummary(t *testing.T) {
	tab := data.NewTable("t")
	n := 40
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(i) * 2
	}
	tab.MustAddColumn(data.NewNumeric("x", x))
	tab.MustAddColumn(data.NewNumeric("y", y))
	warmStats(tab.Col("x"), tab.Col("y"))
	if err := augmentRegression(tab, "y", 1.5, 3); err != nil {
		t.Fatal(err)
	}
	for _, c := range tab.Cols {
		assertSummaryFresh(t, c, "augmentRegression "+c.Name)
	}
}

func TestExtraOpsInvalidateSummary(t *testing.T) {
	mk := func() (*data.Table, *data.Table) {
		tr := data.NewTable("tr")
		tr.MustAddColumn(data.NewNumeric("x", []float64{1, 2, 3, 4, 5, 6, 7, 80}))
		te := data.NewTable("te")
		te.MustAddColumn(data.NewNumeric("x", []float64{2, 3, 90}))
		return tr, te
	}
	ex := &Executor{Target: "y", Task: data.Regression, Seed: 1}
	run := func(st Stmt, tr, te *data.Table) error {
		trained := false
		return ex.execStmt(st, tr, te, 64, &Result{}, &trained, nil)
	}

	tr, te := mk()
	warmStats(tr.Col("x"), te.Col("x"))
	if err := run(Stmt{Op: "bin_numeric", Args: []string{"x"}, KV: map[string]string{"bins": "4"}}, tr, te); err != nil {
		t.Fatalf("bin_numeric: %v", err)
	}
	assertSummaryFresh(t, tr.Col("x"), "bin_numeric train")
	assertSummaryFresh(t, te.Col("x"), "bin_numeric test")

	tr, te = mk()
	warmStats(tr.Col("x"), te.Col("x"))
	if err := run(Stmt{Op: "log_transform", Args: []string{"x"}}, tr, te); err != nil {
		t.Fatalf("log_transform: %v", err)
	}
	assertSummaryFresh(t, tr.Col("x"), "log_transform train")
	assertSummaryFresh(t, te.Col("x"), "log_transform test")

	tr, te = mk()
	warmStats(tr.Col("x"), te.Col("x"))
	if err := run(Stmt{Op: "winsorize", Args: []string{"x"}, KV: map[string]string{"lower": "0.1", "upper": "0.9"}}, tr, te); err != nil {
		t.Fatalf("winsorize: %v", err)
	}
	assertSummaryFresh(t, tr.Col("x"), "winsorize train")
	assertSummaryFresh(t, te.Col("x"), "winsorize test")
}
