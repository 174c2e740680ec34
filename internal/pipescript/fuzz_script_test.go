package pipescript

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"catdb/internal/data"
	"catdb/internal/llm"
	"catdb/internal/profile"
	"catdb/internal/prompt"
)

// fuzzTable is one fixed table every fuzzed program runs against.
type fuzzTable struct {
	name, target, desc string
	task               data.Task
	tr, te             *data.Table
	cols               []ColumnInfo
}

func newFuzzTable(name, target, desc string, task data.Task, tab *data.Table) fuzzTable {
	tr, te := tab.Split(0.75, 1)
	cols := make([]ColumnInfo, 0, len(tr.Cols))
	for _, c := range tr.Cols {
		cols = append(cols, ColumnInfo{
			Name:       c.Name,
			IsString:   c.Kind == data.KindString,
			HasMissing: c.MissingCount() > 0,
			IsTarget:   c.Name == target,
		})
	}
	return fuzzTable{name: name, target: target, desc: desc, task: task, tr: tr, te: te, cols: cols}
}

// fuzzTables returns the tables the PipeScript fuzzer executes on: two
// 60-row registry tables (the registry's minimum size) that the
// simulated LLM writes pipelines for — a multiclass table with sentence,
// list and missing-valued columns and a regression table with dirty
// categoricals — and last the messy table the package's unit-test
// programs are written against.
func fuzzTables(f *testing.F) []fuzzTable {
	var out []fuzzTable
	for _, name := range []string{"EU-IT", "Utility"} {
		ds, err := data.Load(name, 0)
		if err != nil {
			f.Fatal(err)
		}
		tab, err := ds.Consolidate()
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, newFuzzTable(name, ds.Target, ds.Description, ds.Task, tab))
	}
	return append(out, newFuzzTable("messy", "y", "", data.Multiclass, messyTable(60, 3)))
}

// simPrograms asks the simulated gpt-4o and llama3.1-70b for pipelines
// over the registry tables, through the same profile → prompt path
// CatDB runs, so the seeds carry the columns, options and injected
// faults of generated code.
func simPrograms(f *testing.F, tables []fuzzTable) []string {
	var out []string
	for _, ft := range tables[:2] {
		prof, err := profile.Table(ft.tr, ft.target, ft.task, profile.Options{Seed: 1})
		if err != nil {
			f.Fatal(err)
		}
		in := prompt.InputFromProfile(prof, 0, ft.desc)
		for _, model := range []string{"gpt-4o", "llama3.1-70b"} {
			for seed := int64(1); seed <= 4; seed++ {
				c, err := llm.New(model, seed)
				if err != nil {
					f.Fatal(err)
				}
				spec := prompt.ModelSpec{Name: c.Name(), MaxPromptTokens: c.MaxPromptTokens()}
				for _, pr := range prompt.Build(in, spec, prompt.DefaultConfig()) {
					resp, err := c.Complete(pr.Text)
					if err != nil {
						f.Fatal(err)
					}
					out = append(out, resp.Text)
				}
			}
		}
	}
	return out
}

// testPrograms returns every string literal in this package's test files
// that reads as a PipeScript program, so the fuzzer starts from each
// program the unit tests exercise.
func testPrograms(f *testing.F) []string {
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		f.Fatal(err)
	}
	var out []string
	fset := token.NewFileSet()
	for _, name := range files {
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			f.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			if s, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(s, "pipeline ") {
				out = append(out, s)
			}
			return true
		})
	}
	if len(out) == 0 {
		f.Fatal("found no PipeScript programs in the package tests")
	}
	return out
}

// fuzzAffordable bounds the work one fuzz iteration may ask for. The
// tables are tiny, but numeric options size work and memory linearly
// (trees, rounds, epochs, buckets, bins, augment's row factor), so an
// input asking for 10⁹ trees would only measure the machine. Programs
// beyond 128 per option, 32 statements or one row-growing statement are
// skipped.
func fuzzAffordable(p *Program) bool {
	if len(p.Stmts) > 32 {
		return false
	}
	growers := 0
	for _, st := range p.Stmts {
		if st.Op == "augment" || st.Op == "rebalance" {
			growers++
		}
		for _, v := range st.KV {
			if x, err := strconv.ParseFloat(v, 64); err == nil && !(x >= -128 && x <= 128) {
				return false
			}
		}
	}
	return growers <= 1
}

// FuzzPipeScript feeds arbitrary source through Parse → Analyze →
// Execute on three fixed tables. PipeScript comes from the LLM and is
// untrusted by design (Alg. 4 repairs whatever it emits): the debug
// loop's sample execution is the only gate before the full-data run, so
// every input must end in a *SyntaxError, a *RuntimeError, or a result,
// never a panic.
func FuzzPipeScript(f *testing.F) {
	tables := fuzzTables(f)
	for _, src := range testPrograms(f) {
		f.Add(src)
	}
	for _, src := range simPrograms(f, tables) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			if _, ok := err.(*SyntaxError); !ok {
				t.Fatalf("Parse error %T %v is not a *SyntaxError", err, err)
			}
			return
		}
		if !fuzzAffordable(p) {
			t.Skip("program asks for more work than a fuzz iteration affords")
		}
		for _, ft := range tables {
			Analyze(p, ft.cols, ft.task)
			ex := &Executor{Target: ft.target, Task: ft.task, Seed: 1}
			res, err := ex.Execute(p, ft.tr, ft.te)
			if err != nil {
				if _, ok := err.(*RuntimeError); !ok {
					t.Fatalf("%s: Execute error %T %v is not a *RuntimeError", ft.name, err, err)
				}
				continue
			}
			if res == nil {
				t.Fatalf("%s: Execute returned neither a result nor an error", ft.name)
			}
		}
	})
}
