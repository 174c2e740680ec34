package bench

import (
	"fmt"
	"time"

	"catdb/internal/baselines"
	"catdb/internal/core"
	"catdb/internal/data"
	"catdb/internal/llm"
	"catdb/internal/obs"
)

// Fig14Row is one (dataset, corruption, ratio, system) measurement.
type Fig14Row struct {
	Dataset    string
	Corruption string // "outliers", "missing", "mixed"
	Ratio      float64
	System     string
	Score      float64
	Failed     bool
}

// Fig14Result holds the robustness study of Figure 14.
type Fig14Result struct {
	Rows []Fig14Row
}

// Get returns the score for a specific cell (NaN-free: 0 when missing).
func (r *Fig14Result) Get(dataset, corruption string, ratio float64, system string) (float64, bool) {
	for _, row := range r.Rows {
		if row.Dataset == dataset && row.Corruption == corruption &&
			row.Ratio == ratio && row.System == system && !row.Failed {
			return row.Score, true
		}
	}
	return 0, false
}

// RunFig14Robustness reproduces Figure 14: outlier, missing-value, and
// mixed corruption injected at increasing ratios into the Utility
// (regression) and Volkert (classification) analogues, comparing CatDB's
// data-centric pipelines against AutoML tools without cleaning.
func RunFig14Robustness(cfg Config) (*Fig14Result, error) {
	cfg = cfg.withDefaults()
	res := &Fig14Result{}
	datasets := []string{"Utility", "Volkert"}
	ratios := []float64{0, 0.01, 0.02, 0.05}
	corruptions := []string{"outliers", "missing", "mixed"}
	if cfg.Fast {
		datasets = datasets[:1]
		ratios = []float64{0, 0.05}
		corruptions = corruptions[:2]
	}
	tools := []baselines.AutoMLTool{baselines.FLAML, baselines.AutoGluon, baselines.H2O}
	if cfg.Fast {
		tools = tools[:1]
	}

	// One cell per (dataset, corruption, ratio): the cell clones the base
	// dataset before injecting corruption, so concurrent cells never see
	// each other's mutations; each returns its CatDB row plus the AutoML
	// rows in the serial order.
	type cellID struct {
		base       *data.Dataset
		name       string
		corruption string
		ratio      float64
	}
	var cells []cellID
	for _, name := range datasets {
		base, err := data.Load(name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		for _, corruption := range corruptions {
			for _, ratio := range ratios {
				cells = append(cells, cellID{base: base, name: name, corruption: corruption, ratio: ratio})
			}
		}
	}
	rowGroups, err := mapCells(cfg, "fig14", len(cells), func(k int, sp *obs.Span) ([]Fig14Row, error) {
		name, corruption, ratio := cells[k].name, cells[k].corruption, cells[k].ratio
		sp.SetStr("dataset", name)
		sp.SetStr("corruption", corruption)
		var rows []Fig14Row
		ds := cells[k].base.Clone()
		// Corruption targets the *training* data; test sets stay clean,
		// as in the paper's setup.
		inject := func(t *data.Table) {
			switch corruption {
			case "outliers":
				data.InjectOutliers(t, ds.Target, ratio, cfg.Seed)
				data.InjectTargetOutliers(t, ds.Target, ratio, cfg.Seed+1)
			case "missing":
				data.InjectMissing(t, ds.Target, ratio, cfg.Seed)
			default:
				data.InjectMixed(t, ds.Target, ratio, cfg.Seed)
				data.InjectTargetOutliers(t, ds.Target, ratio/2, cfg.Seed+1)
			}
		}

		// CatDB: the train split is corrupted after splitting.
		client, cerr := llm.New("gemini-1.5-pro", cfg.Seed+int64(ratio*1000))
		if cerr != nil {
			return nil, cerr
		}
		r := core.NewRunner(client)
		r.ProfileCache = cfg.ProfileCache
		cfg.instrument(r, sp)
		out, rerr := r.Run(ds, core.Options{Seed: cfg.Seed, TrainMutator: inject, ExecShardRows: cfg.ShardRows})
		row := Fig14Row{Dataset: name, Corruption: corruption, Ratio: ratio, System: "CatDB"}
		if rerr != nil {
			row.Failed = true
		} else {
			row.Score = out.Exec.Primary()
		}
		rows = append(rows, row)

		// AutoML tools without cleaning: same corrupted train split.
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
		inject(tr)
		for _, tool := range tools {
			o := baselines.RunAutoML(tool, tr, te, ds.Target, ds.Task,
				baselines.AutoMLOptions{Seed: cfg.Seed, TimeBudget: pickDur(cfg.Fast, 5*time.Second, 15*time.Second)})
			rows = append(rows, Fig14Row{
				Dataset: name, Corruption: corruption, Ratio: ratio,
				System: string(tool), Score: o.Primary(), Failed: o.Failed,
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

	t := &table{header: []string{"Dataset", "Corruption", "Ratio", "System", "Score"}}
	for _, r := range res.Rows {
		v := f1(r.Score)
		if r.Failed {
			v = "FAIL"
		}
		t.add(r.Dataset, r.Corruption, fmt.Sprintf("%.0f%%", r.Ratio*100), r.System, v)
	}
	t.render(cfg.Out, "Figure 14: Robustness under Outlier/Missing/Mixed Injection")
	return res, nil
}
