package data

import (
	"math/rand"
	"testing"
)

// deepSelect materializes the given rows of a table the way the
// pre-view implementation did: fresh dense storage per column, built
// cell by cell. The view equivalence tests compare against it.
func deepSelect(t *Table, rows []int) *Table {
	out := &Table{Name: t.Name}
	for _, c := range t.Cols {
		nc := &Column{Name: c.Name, Kind: c.Kind}
		for _, r := range rows {
			if c.IsMissing(r) {
				nc.AppendMissing()
				continue
			}
			nc.AppendFrom(c, r)
		}
		// AppendMissing/AppendFrom on an empty string column build the
		// numeric slab only when the kind is numeric, matching Select.
		out.Cols = append(out.Cols, nc)
	}
	return out
}

// tablesEqual compares two tables cell by cell, including missing masks.
func tablesEqual(t *testing.T, a, b *Table, ctx string) {
	t.Helper()
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		t.Fatalf("%s: shape %dx%d vs %dx%d", ctx, a.NumRows(), a.NumCols(), b.NumRows(), b.NumCols())
	}
	for ci, ca := range a.Cols {
		cb := b.Cols[ci]
		if ca.Name != cb.Name || ca.Kind != cb.Kind {
			t.Fatalf("%s: col %d meta %s/%s vs %s/%s", ctx, ci, ca.Name, ca.Kind, cb.Name, cb.Kind)
		}
		for i := 0; i < ca.Len(); i++ {
			if ca.IsMissing(i) != cb.IsMissing(i) {
				t.Fatalf("%s: col %s row %d missing mask differs", ctx, ca.Name, i)
			}
			if ca.ValueString(i) != cb.ValueString(i) {
				t.Fatalf("%s: col %s row %d value %q vs %q", ctx, ca.Name, i, ca.ValueString(i), cb.ValueString(i))
			}
		}
	}
}

func viewFixture() *Table {
	tb := NewTable("vf")
	n := 50
	x := make([]float64, n)
	s := make([]string, n)
	for i := range x {
		x[i] = float64(i)
		s[i] = string(rune('a' + i%5))
	}
	tb.MustAddColumn(NewNumeric("x", x))
	tb.MustAddColumn(NewString("s", s))
	tb.Col("x").SetMissing(3)
	tb.Col("s").SetMissing(7)
	return tb
}

// Selecting rows through the view machinery must be observably identical
// to the old materializing deep copy, including stacked selections.
func TestSelectRowsMatchesDeepCopy(t *testing.T) {
	tb := viewFixture()
	rows := []int{9, 3, 3, 0, 42, 7}
	tablesEqual(t, tb.SelectRows(rows), deepSelect(tb, rows), "SelectRows")

	// A selection of a selection composes the index mappings.
	sub := tb.SelectRows(rows)
	rows2 := []int{5, 1, 0}
	tablesEqual(t, sub.SelectRows(rows2), deepSelect(sub, rows2), "stacked SelectRows")
}

// Split and StratifiedSplit on views must produce the same partitions as
// on the base table materialized row by row.
func TestSplitOnViewMatchesBase(t *testing.T) {
	tb := viewFixture()
	all := make([]int, tb.NumRows())
	for i := range all {
		all[i] = i
	}
	view := tb.SelectRows(all) // identity view, storage shared
	tr1, te1 := tb.Split(0.7, 99)
	tr2, te2 := view.Split(0.7, 99)
	tablesEqual(t, tr1, tr2, "train")
	tablesEqual(t, te1, te2, "test")

	str1, ste1 := tb.StratifiedSplit("s", 0.7, 99)
	str2, ste2 := view.StratifiedSplit("s", 0.7, 99)
	tablesEqual(t, str1, str2, "stratified train")
	tablesEqual(t, ste1, ste2, "stratified test")
}

// Mutating through a view promotes only the touched column; the base
// table stays byte-identical and sibling columns keep sharing storage.
func TestViewMutationCopyOnWrite(t *testing.T) {
	tb := viewFixture()
	baseX := append([]float64(nil), tb.Col("x").NumsView()...)
	baseS := append([]string(nil), tb.Col("s").StrsView()...)

	v := tb.SelectRows([]int{10, 11, 12})
	v.Col("x").SetNum(0, -1)
	v.Col("s").SetMissing(2)

	if v.Col("x").Num(0) != -1 || !v.Col("s").IsMissing(2) {
		t.Fatal("view mutation lost")
	}
	for i, want := range baseX {
		if tb.Col("x").Num(i) != want {
			t.Fatalf("base x[%d] changed after view write", i)
		}
	}
	for i, want := range baseS {
		if tb.Col("s").Str(i) != want || tb.Col("s").IsMissing(i) != (i == 7) {
			t.Fatalf("base s[%d] changed after view write", i)
		}
	}

	// Only the touched columns promoted: untouched view columns still
	// alias base storage (same backing array).
	v2 := tb.SelectRows([]int{0, 1})
	if &v2.Col("x").store.nums[0] != &tb.Col("x").store.nums[0] {
		t.Fatal("untouched view column must share storage")
	}
	v2.Col("x").SetNum(0, 5)
	if &v2.Col("x").store.nums[0] == &tb.Col("x").store.nums[0] {
		t.Fatal("mutated view column must own storage")
	}
	if &v2.Col("s").store.strs[0] != &tb.Col("s").store.strs[0] {
		t.Fatal("sibling column must keep sharing storage")
	}
}

// A read-modify-write loop over every row of a permuted view gathers the
// mapped rows into private storage on its first write: every row reads
// its own source value, and the base stays untouched.
func TestViewRewriteLoopCopyOnWrite(t *testing.T) {
	base := NewNumeric("x", []float64{10, 11, 12, 13, 14, 15})
	view := base.Select([]int{5, 3, 1})
	for i := 0; i < view.Len(); i++ {
		view.SetNum(i, view.Num(i)*2)
	}
	for i, w := range []float64{30, 26, 22} {
		if view.Num(i) != w {
			t.Fatalf("view row %d = %v, want %v", i, view.Num(i), w)
		}
	}
	for i, w := range []float64{10, 11, 12, 13, 14, 15} {
		if base.Num(i) != w {
			t.Fatalf("CoW isolation broken: base row %d = %v, want %v", i, base.Num(i), w)
		}
	}
}

// Mutating the base after handing out a view must not show through the
// view (the base promotes, the view keeps the old store).
func TestBaseMutationInvisibleThroughView(t *testing.T) {
	tb := viewFixture()
	v := tb.SelectRows([]int{10})
	tb.Col("x").SetNum(10, 777)
	if v.Col("x").Num(0) == 777 {
		t.Fatal("base write leaked into view")
	}
	if tb.Col("x").Num(10) != 777 {
		t.Fatal("base write lost")
	}
}

// Appends on a clone must never grow storage visible to the original (and
// vice versa): Append* promotes before growing.
func TestCloneAppendIsolation(t *testing.T) {
	c := NewNumeric("x", []float64{1, 2})
	cp := c.Clone()
	cp.AppendNums(3)
	if c.Len() != 2 || cp.Len() != 3 {
		t.Fatalf("lens %d/%d after clone append, want 2/3", c.Len(), cp.Len())
	}
	c.AppendFrom(c, 0)
	if c.Len() != 3 || cp.Len() != 3 || cp.Num(2) != 3 || c.Num(2) != 1 {
		t.Fatal("append isolation broken")
	}
}

// Every setter invalidates a warm summary through a view as well.
func TestViewSetterInvalidatesSummary(t *testing.T) {
	tb := viewFixture()
	v := tb.SelectRows([]int{0, 1, 2, 3, 4})
	x, s := v.Col("x"), v.Col("s")
	warm := func() { _, _ = x.Summary(), s.Summary() }

	warm()
	x.SetNum(0, 100)
	if st := x.NumericStats(); st.Max != 100 {
		t.Fatalf("SetNum left stale stats: %+v", st)
	}
	warm()
	x.SetMissing(1)
	if x.MissingCount() != 2 { // row 3 of the base (index 3 here) was already missing
		t.Fatalf("SetMissing stale: missing = %d", x.MissingCount())
	}
	warm()
	x.ClearMissing(1)
	if x.MissingCount() != 1 {
		t.Fatalf("ClearMissing stale: missing = %d", x.MissingCount())
	}
	warm()
	s.SetStr(0, "zzz")
	if !s.Summary().Contains("zzz") {
		t.Fatal("SetStr left stale distinct set")
	}
	warm()
	s.AppendStrs("qqq")
	if !s.Summary().Contains("qqq") {
		t.Fatal("AppendStrs left stale distinct set")
	}
}

// Sample must consume the RNG identically whether or not n covers the
// whole table, so downstream draws from a shared rng do not diverge on
// small tables.
func TestSampleRNGConsumptionUniform(t *testing.T) {
	tb := viewFixture()
	rngA := rand.New(rand.NewSource(42))
	_ = tb.Sample(5, rngA) // undersample
	afterA := rngA.Int63()

	rngB := rand.New(rand.NewSource(42))
	_ = tb.Sample(tb.NumRows()+10, rngB) // oversample → full clone
	afterB := rngB.Int63()

	if afterA != afterB {
		t.Fatalf("RNG state diverged by sample size: %d vs %d", afterA, afterB)
	}

	// Oversampling still returns the full table in original row order.
	rngC := rand.New(rand.NewSource(42))
	full := tb.Sample(1000, rngC)
	tablesEqual(t, full, tb, "oversample")
}

// Row subsetting must allocate O(columns), not O(cells): the per-column
// cost of SelectRows is a view header, with one shared index copy.
func TestSelectRowsAllocatesPerColumn(t *testing.T) {
	tb := NewTable("alloc")
	const rows, cols = 4096, 16
	for c := 0; c < cols; c++ {
		vals := make([]float64, rows)
		for i := range vals {
			vals[i] = float64(i * c)
		}
		tb.MustAddColumn(NewNumeric(colName(c), vals))
	}
	idx := make([]int, rows/2)
	for i := range idx {
		idx[i] = i * 2
	}
	allocs := testing.AllocsPerRun(10, func() {
		_ = tb.SelectRows(idx)
	})
	// Table + col slice + per-column Column headers + one index copy.
	// A deep copy would take ≥ 3 allocations per column (nums, missing,
	// header) plus the cell copying; give the view generous headroom.
	if max := float64(2*cols + 8); allocs > max {
		t.Fatalf("SelectRows allocs = %.0f, want ≤ %.0f (O(columns))", allocs, max)
	}
}

func colName(i int) string { return "c" + string(rune('a'+i)) }
