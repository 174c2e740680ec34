package bench

import (
	"fmt"

	"catdb/internal/core"
	"catdb/internal/data"
	"catdb/internal/llm"
	"catdb/internal/obs"
	"catdb/internal/prompt"
)

// Fig10Row is one (dataset, configuration) accuracy measurement.
type Fig10Row struct {
	Dataset string
	Config  string // "#1".."#11", "CatDB", "CatDB Chain", "TopK=..."
	Score   float64
	Failed  bool
}

// Fig10Result holds the metadata-impact micro-benchmark.
type Fig10Result struct {
	Rows []Fig10Row
}

// RunFig10MetadataImpact reproduces Figure 10: pipeline quality across the
// eleven metadata combinations of Table 1 (metadata-only prompting) versus
// CatDB's adaptive metadata+rules selection and CatDB Chain, on one
// binary, one multiclass, and one regression dataset; plus the top-K
// feature-selection sweep of Figure 10(c,d) on the wide KDD98 analogue.
func RunFig10MetadataImpact(cfg Config) (*Fig10Result, error) {
	cfg = cfg.withDefaults()
	res := &Fig10Result{}
	datasets := []string{"Diabetes", "EU-IT", "Utility"}
	if cfg.Fast {
		datasets = []string{"Diabetes", "Utility"}
	}
	model := "gemini-1.5-pro"

	// One closure per (dataset, configuration) cell, built in the paper's
	// row order; the pool preserves that order on reassembly. runCell is
	// the shared body: each cell derives its own client from the cell
	// identity so scores are independent of scheduling.
	runCell := func(sp *obs.Span, ds *data.Dataset, config, model string, clientSeed int64, opts core.Options) (Fig10Row, error) {
		client, err := llm.New(model, clientSeed)
		if err != nil {
			return Fig10Row{}, err
		}
		r := core.NewRunner(client)
		r.ProfileCache = cfg.ProfileCache
		cfg.instrument(r, sp)
		out, rerr := r.Run(ds, opts)
		row := Fig10Row{Dataset: ds.Name, Config: config}
		if rerr != nil {
			row.Failed = true
		} else {
			row.Score = out.Exec.Primary()
		}
		return row, nil
	}
	var cells []func(sp *obs.Span) (Fig10Row, error)
	for _, name := range datasets {
		ds, err := data.Load(name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		// Table 1 combinations, metadata-only.
		for combo := prompt.Combo1; combo <= prompt.Combo11; combo++ {
			if cfg.Fast && combo > prompt.Combo4 && combo != prompt.Combo11 {
				continue
			}
			combo := combo
			cells = append(cells, func(sp *obs.Span) (Fig10Row, error) {
				return runCell(sp, ds, fmt.Sprintf("#%d", combo), model, cfg.Seed+int64(combo),
					core.Options{Seed: cfg.Seed, Combo: combo, MetadataOnly: true, NoRefine: true, ExecShardRows: cfg.ShardRows})
			})
		}
		// CatDB and CatDB Chain.
		for _, variant := range []struct {
			label  string
			chains int
		}{{"CatDB", 1}, {"CatDB Chain", 3}} {
			variant := variant
			cells = append(cells, func(sp *obs.Span) (Fig10Row, error) {
				return runCell(sp, ds, variant.label, model, cfg.Seed+100+int64(variant.chains),
					core.Options{Seed: cfg.Seed, Chains: variant.chains, ExecShardRows: cfg.ShardRows})
			})
		}
	}

	// Figure 10(c,d): top-K sweep on the wide dataset; the single prompt
	// degrades once the metadata overflows the model context (rules get
	// truncated), while the chain variant stays flat.
	if !cfg.Fast {
		wide, err := data.Load("KDD98", cfg.Scale*0.5)
		if err != nil {
			return nil, err
		}
		for _, k := range []int{50, 130, 260, 478} {
			for _, variant := range []struct {
				label  string
				chains int
			}{{"single", 1}, {"chain", 4}} {
				k, variant := k, variant
				cells = append(cells, func(sp *obs.Span) (Fig10Row, error) {
					row, err := runCell(sp, wide, fmt.Sprintf("TopK=%d/%s", k, variant.label),
						"llama3.1-70b", cfg.Seed+int64(k),
						core.Options{Seed: cfg.Seed, TopK: k, Chains: variant.chains, NoRefine: true, ExecShardRows: cfg.ShardRows})
					row.Dataset = "KDD98"
					return row, err
				})
			}
		}
	}
	rows, err := mapCells(cfg, "fig10", len(cells), func(i int, sp *obs.Span) (Fig10Row, error) { return cells[i](sp) })
	if err != nil {
		return nil, err
	}
	res.Rows = rows

	t := &table{header: []string{"Dataset", "Config", "Score(AUC/R2)"}}
	for _, r := range res.Rows {
		v := f1(r.Score)
		if r.Failed {
			v = "FAIL"
		}
		t.add(r.Dataset, r.Config, v)
	}
	t.render(cfg.Out, "Figure 10: Metadata Impact on Pipeline Performance")
	return res, nil
}

// Best returns the best score recorded for a dataset/config prefix.
func (r *Fig10Result) Best(dataset, configPrefix string) float64 {
	best := 0.0
	for _, row := range r.Rows {
		if row.Dataset == dataset && len(row.Config) >= len(configPrefix) &&
			row.Config[:len(configPrefix)] == configPrefix && row.Score > best {
			best = row.Score
		}
	}
	return best
}
