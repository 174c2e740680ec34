package pipescript

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

const goodSrc = `# generated pipeline
pipeline "demo"
require tabular
impute "age" strategy=median
impute_all strategy=auto
clip_outliers all method=iqr factor=1.5
scale all_numeric method=standard
onehot "state" max_categories=32
khot "skills"
drop "address"
drop_constant
rebalance method=adasyn
select_topk k=20
train model=random_forest target="salary" trees=40
evaluate metric=auto
`

func TestParseGoodProgram(t *testing.T) {
	p, err := Parse(goodSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "demo" {
		t.Fatalf("name = %q", p.Name)
	}
	if len(p.Stmts) != 14 {
		t.Fatalf("stmts = %d", len(p.Stmts))
	}
	tr := p.TrainStmt()
	if tr == nil || tr.Opt("model", "") != "random_forest" || tr.Opt("target", "") != "salary" {
		t.Fatalf("train stmt = %+v", tr)
	}
	if tr.Opt("trees", "") != "40" {
		t.Fatal("numeric option lost")
	}
	if !p.HasStmt("khot") || p.HasStmt("hash_encode") {
		t.Fatal("HasStmt broken")
	}
}

func TestParseComments(t *testing.T) {
	p, err := Parse("pipeline \"x\"\n# a comment\n\ntrain model=knn\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Stmts) != 2 {
		t.Fatalf("stmts = %d", len(p.Stmts))
	}
}

func TestParseSyntaxErrors(t *testing.T) {
	cases := []struct {
		src  string
		line int
	}{
		{"pipeline \"x\"\nfrobnicate foo\n", 2},                     // unknown statement
		{"pipeline \"x\"\nimpute\n", 2},                             // missing arg
		{"pipeline \"x\"\ntrain model=\"rf\nevaluate\n", 2},         // unterminated quote
		{"impute \"age\"\n", 1},                                     // missing pipeline header
		{"", 1},                                                     // empty program
		{"pipeline \"x\"\nHere is the pipeline you asked for\n", 2}, // prose injection
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		var se *SyntaxError
		if !errors.As(err, &se) {
			t.Fatalf("src %q: want SyntaxError, got %v", tc.src, err)
		}
		if se.Line != tc.line {
			t.Errorf("src %q: error line = %d, want %d", tc.src, se.Line, tc.line)
		}
		if !strings.Contains(se.Error(), "syntax error") {
			t.Errorf("error string should mention syntax error: %v", se)
		}
	}
}

func TestParseQuotedValuesWithSpaces(t *testing.T) {
	p, err := Parse("pipeline \"two words\"\ndrop \"my column\"\ntrain model=knn\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "two words" {
		t.Fatalf("name = %q", p.Name)
	}
	if p.Stmts[1].Arg(0) != "my column" {
		t.Fatalf("arg = %q", p.Stmts[1].Arg(0))
	}
}

func TestStmtAccessors(t *testing.T) {
	st := Stmt{Args: []string{"a"}, KV: map[string]string{"k": "v"}}
	if st.Arg(0) != "a" || st.Arg(5) != "" {
		t.Fatal("Arg accessor broken")
	}
	if st.Opt("k", "d") != "v" || st.Opt("nope", "d") != "d" {
		t.Fatal("Opt accessor broken")
	}
}

func TestMalformedOption(t *testing.T) {
	_, err := Parse("pipeline \"x\"\nimpute \"a\" strategy=\n")
	if err == nil {
		t.Fatal("empty option value must be a syntax error")
	}
}

// Property: parsing never panics on arbitrary input and always returns
// either a program or a *SyntaxError.
func TestParseNeverPanicsProperty(t *testing.T) {
	f := func(s string) bool {
		p, err := Parse(s)
		if err != nil {
			var se *SyntaxError
			return errors.As(err, &se)
		}
		return p != nil && len(p.Stmts) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a well-formed single-op program parses and round-trips its op.
func TestParseOpsRoundTrip(t *testing.T) {
	for op, minArgs := range knownOps {
		if op == "pipeline" {
			continue
		}
		src := "pipeline \"p\"\n" + op
		for i := 0; i < minArgs; i++ {
			src += " \"arg\""
		}
		src += "\n"
		p, err := Parse(src)
		if err != nil {
			t.Errorf("op %s: %v", op, err)
			continue
		}
		if p.Stmts[1].Op != op {
			t.Errorf("op %s round trip failed", op)
		}
	}
}

// TestOpTableComplete pins the optable contract: every parseable op is
// registered with a handler and the parser's arity.
func TestOpTableComplete(t *testing.T) {
	if len(knownOps) == 0 || len(knownOps) != len(opRegistry) {
		t.Fatalf("knownOps (%d) and opRegistry (%d) out of sync", len(knownOps), len(opRegistry))
	}
	for name, minArgs := range knownOps {
		spec := opRegistry[name]
		if spec == nil {
			t.Fatalf("op %q parseable but unregistered", name)
		}
		if spec.minArgs != minArgs {
			t.Fatalf("op %q: arity mismatch (%d vs %d)", name, spec.minArgs, minArgs)
		}
		if spec.exec == nil {
			t.Fatalf("op %q has no handler", name)
		}
	}
}
