package bench

import (
	"fmt"
	"time"

	"catdb/internal/baselines"
	"catdb/internal/catalog"
	"catdb/internal/core"
	"catdb/internal/data"
	"catdb/internal/llm"
	"catdb/internal/obs"
)

// cleaningDatasets are the six datasets of the §5.3 catalog-refinement
// study (Tables 4-6).
var cleaningDatasets = []string{"EU-IT", "Wifi", "Etailing", "Survey", "Utility", "Yelp"}

// Table4Row is one refined column's distinct-count reduction.
type Table4Row struct {
	Dataset          string
	Column           string
	Kind             catalog.UpdateKind
	OriginalDistinct int
	RefinedDistinct  int
}

// Table4Result holds the refinement bookkeeping of Table 4.
type Table4Result struct {
	Rows []Table4Row
}

// RunTable4Refinement reproduces Table 4: per-column original vs refined
// distinct-value counts for the six cleaning datasets (LLM = Gemini-1.5,
// as in the paper).
func RunTable4Refinement(cfg Config) (*Table4Result, error) {
	cfg = cfg.withDefaults()
	res := &Table4Result{}
	datasets := cleaningDatasets
	if cfg.Fast {
		datasets = datasets[:3]
	}
	// One cell per dataset; refinement rows come back in dataset order.
	rowGroups, err := mapCells(cfg, "table4", len(datasets), func(i int, sp *obs.Span) ([]Table4Row, error) {
		name := datasets[i]
		sp.SetStr("dataset", name)
		ds, err := data.Load(name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		client, err := llm.New("gemini-1.5-pro", cfg.Seed)
		if err != nil {
			return nil, err
		}
		ref, err := catalog.RefineDataset(ds, client, catalog.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, fmt.Errorf("bench: refine %s: %w", name, err)
		}
		var rows []Table4Row
		for _, up := range ref.Updates {
			rows = append(rows, Table4Row{
				Dataset: name, Column: up.Column, Kind: up.Kind,
				OriginalDistinct: up.OriginalDistinct, RefinedDistinct: up.RefinedDistinct,
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	for _, rows := range rowGroups {
		res.Rows = append(res.Rows, rows...)
	}
	t := &table{header: []string{"Dataset", "Column", "Refinement", "Original", "CatDB"}}
	for _, r := range res.Rows {
		t.add(r.Dataset, r.Column, string(r.Kind), fmt.Sprint(r.OriginalDistinct), fmt.Sprint(r.RefinedDistinct))
	}
	t.render(cfg.Out, "Table 4: Catalog Refinement and Data Cleaning (distinct items)")
	return res, nil
}

// Table5Row is one (dataset, system) train/test accuracy pair.
type Table5Row struct {
	Dataset  string
	System   string
	TrainAcc float64
	TestAcc  float64
	Failed   bool
	Reason   string
	Runtime  time.Duration // reused by Table 6
	Steps    []string      // cleaning steps for workflow systems
}

// Table5Result holds the cleaning accuracy comparison (Tables 5 and 6
// share the same runs).
type Table5Result struct {
	Rows []Table5Row
}

// Get returns the row for a dataset/system pair, or nil.
func (r *Table5Result) Get(dataset, system string) *Table5Row {
	for i := range r.Rows {
		if r.Rows[i].Dataset == dataset && r.Rows[i].System == system {
			return &r.Rows[i]
		}
	}
	return nil
}

// RunTable5Cleaning reproduces Tables 5 and 6: train/test accuracy and
// runtimes for CatDB on original vs refined data against CAAFE, AIDE,
// AutoGen, and cleaning+AutoML workflows on the six cleaning datasets
// (LLM = Gemini-1.5).
func RunTable5Cleaning(cfg Config) (*Table5Result, error) {
	cfg = cfg.withDefaults()
	res := &Table5Result{}
	datasets := cleaningDatasets
	if cfg.Fast {
		datasets = []string{"EU-IT", "Wifi", "Etailing"}
	}
	// One closure per (dataset, system) cell, built in the paper's row
	// order. The dataset and its split are loaded once per dataset and
	// shared read-only across the dataset's cells (every system clones
	// before mutating).
	var cells []func(sp *obs.Span) (Table5Row, error)
	for _, name := range datasets {
		name := name
		ds, err := data.Load(name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		tb, err := ds.Consolidate()
		if err != nil {
			return nil, err
		}
		var tr, te *data.Table
		if ds.Task.IsClassification() {
			tr, te = tb.StratifiedSplit(ds.Target, 0.7, cfg.Seed)
		} else {
			tr, te = tb.Split(0.7, cfg.Seed)
		}

		// CatDB original vs refined.
		for _, variant := range []struct {
			label    string
			noRefine bool
		}{{"CatDB Original", true}, {"CatDB Refined", false}} {
			variant := variant
			cells = append(cells, func(sp *obs.Span) (Table5Row, error) {
				client, err := llm.New("gemini-1.5-pro", cfg.Seed+7)
				if err != nil {
					return Table5Row{}, err
				}
				r := core.NewRunner(client)
				r.ProfileCache = cfg.ProfileCache
				cfg.instrument(r, sp)
				start := time.Now()
				out, rerr := r.Run(ds, core.Options{Seed: cfg.Seed, NoRefine: variant.noRefine, ExecShardRows: cfg.ShardRows})
				row := Table5Row{Dataset: name, System: variant.label, Runtime: time.Since(start)}
				if rerr != nil {
					row.Failed, row.Reason = true, rerr.Error()
				} else {
					row.TrainAcc = trainScore(out)
					row.TestAcc = testScore(out)
					row.Runtime = out.ExecTime // Table 6 reports pipeline execution time
				}
				return row, nil
			})
		}

		// CAAFE (both backends).
		for _, backend := range []baselines.CAAFEBackend{baselines.CAAFETabPFN, baselines.CAAFEForest} {
			backend := backend
			cells = append(cells, func(*obs.Span) (Table5Row, error) {
				o := baselines.RunCAAFE(tr, te, ds.Target, ds.Task, baselines.CAAFEOptions{
					Backend: backend, Seed: cfg.Seed, Rounds: pickInt(cfg.Fast, 2, 4),
				})
				return toTable5Row(name, o), nil
			})
		}

		// AIDE and AutoGen.
		cells = append(cells, func(*obs.Span) (Table5Row, error) {
			client, _ := llm.New("gemini-1.5-pro", cfg.Seed+13)
			return toTable5Row(name, baselines.RunAIDE(ds, client, baselines.LLMBaselineOptions{Seed: cfg.Seed})), nil
		})
		cells = append(cells, func(*obs.Span) (Table5Row, error) {
			client, _ := llm.New("gemini-1.5-pro", cfg.Seed+17)
			return toTable5Row(name, baselines.RunAutoGen(ds, client, baselines.LLMBaselineOptions{Seed: cfg.Seed})), nil
		})

		// Cleaning + AutoML workflows.
		tools := []baselines.AutoMLTool{baselines.H2O, baselines.FLAML, baselines.AutoGluon}
		if cfg.Fast {
			tools = tools[:1]
		}
		for _, tool := range tools {
			tool := tool
			cells = append(cells, func(*obs.Span) (Table5Row, error) {
				o, steps := baselines.RunCleaningWorkflow(baselines.CleanL2C, tool, tr, te, ds.Target, ds.Task,
					baselines.AutoMLOptions{Seed: cfg.Seed, TimeBudget: pickDur(cfg.Fast, 5*time.Second, 20*time.Second)})
				row := toTable5Row(name, o)
				row.Steps = steps
				return row, nil
			})
		}
	}
	rows, err := mapCells(cfg, "table56", len(cells), func(i int, sp *obs.Span) (Table5Row, error) { return cells[i](sp) })
	if err != nil {
		return nil, err
	}
	res.Rows = rows

	t := &table{header: []string{"Dataset", "System", "Train", "Test", "Runtime[s]"}}
	for _, r := range res.Rows {
		t.add(r.Dataset, r.System,
			orNA(r.Failed, r.Reason, f1(r.TrainAcc)),
			orNA(r.Failed, r.Reason, f1(r.TestAcc)),
			secs(r.Runtime))
	}
	t.render(cfg.Out, "Table 5/6: Cleaning Accuracy and Runtime (LLM = Gemini-1.5)")
	return res, nil
}

func toTable5Row(dataset string, o baselines.Outcome) Table5Row {
	row := Table5Row{Dataset: dataset, System: o.System, Failed: o.Failed, Reason: o.Reason, Runtime: o.Total()}
	if !o.Failed {
		if o.Metric == "r2" {
			row.TrainAcc, row.TestAcc = o.TrainR2, o.TestR2
		} else {
			row.TrainAcc, row.TestAcc = o.TrainAcc, o.TestAcc
		}
	}
	return row
}

func trainScore(out *core.Result) float64 {
	if out.Exec.Metric == "r2" {
		return out.Exec.TrainR2
	}
	return out.Exec.TrainAcc
}

func testScore(out *core.Result) float64 {
	if out.Exec.Metric == "r2" {
		return out.Exec.TestR2
	}
	return out.Exec.TestAcc
}

func pickInt(cond bool, a, b int) int {
	if cond {
		return a
	}
	return b
}

func pickDur(cond bool, a, b time.Duration) time.Duration {
	if cond {
		return a
	}
	return b
}
