package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"catdb"
)

// cell is one (dataset, model, variant) PipGen configuration; chains is
// β: 1 is CatDB, 3 is CatDB Chain.
type cell struct {
	dataset string
	model   string
	chains  int
}

// pipgenCells is the fixed rotation: Table 3 analogues from 125 to 6000
// rows and 5 to 129 columns, every model and both variants, about 12 s
// per rotation on a 2-core box. The llama and Chain cells run the τ₂
// debug loop, so LLM, error-KB and prompt work move with the seed while
// the mix stays fixed. Five cells sit near the median op time, so the
// median does not jump between two distant cells when noise reorders
// them.
var pipgenCells = []cell{
	{"CMC", "llama3.1-70b", 3},
	{"EU-IT", "llama3.1-70b", 3},
	{"Survey", "gpt-4o", 3},
	{"Survey", "llama3.1-70b", 3},
	{"Utility", "gpt-4o", 1},
	{"Utility", "llama3.1-70b", 3},
	{"Bike-Sharing", "gemini-1.5-pro", 3},
	{"Bike-Sharing", "llama3.1-70b", 3},
	{"Walking", "gemini-1.5-pro", 1},
	{"House-Sales", "llama3.1-70b", 1},
	{"IMDB", "gemini-1.5-pro", 1},
	{"NYC", "gpt-4o", 3},
	{"Gas-Drift", "gemini-1.5-pro", 1},
}

// pipgenScale is the dataset scale of every cell.
const pipgenScale = 0.1

type pipgen struct {
	seed     int64
	cells    []cell
	data     []*catdb.Dataset
	rows     []int
	seeds    []int64         // per-cell LLM and split seed, fixed for the run
	first    []*catdb.Result // per cell: the first result, for the repeat check
	rotation int
}

func setupPipgen(cfg config) (workload, error) {
	cells := pipgenCells
	if cfg.tiny {
		cells = cells[:2]
	}
	w := &pipgen{seed: cfg.seed, cells: cells, first: make([]*catdb.Result, len(cells))}
	for i, c := range cells {
		ds, err := catdb.LoadDataset(c.dataset, pipgenScale)
		if err != nil {
			return nil, err
		}
		w.data = append(w.data, ds)
		w.rows = append(w.rows, ds.PrimaryTable().NumRows())
		w.seeds = append(w.seeds, cellSeed(cfg.seed, i, c))
	}
	return w, nil
}

// cellSeed derives a cell's seed from the workload seed and the cell's
// identity, so it does not depend on the order cells run in.
func cellSeed(seed int64, i int, c cell) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%s/%s/%d", seed, i, c.dataset, c.model, c.chains)
	return int64(h.Sum64() >> 1)
}

// round runs every cell once, in a seeded order.
func (w *pipgen) round(ph *phase) {
	order := rand.New(rand.NewSource(w.seed*7919 + int64(w.rotation))).Perm(len(w.cells))
	w.rotation++
	for _, i := range order {
		c := w.cells[i]
		ph.attempted++
		client, err := catdb.NewLLM(c.model, w.seeds[i])
		if err != nil {
			ph.fail("pipgen %s/%s: %v", c.dataset, c.model, err)
			continue
		}
		opts := catdb.Options{Chains: c.chains, Seed: w.seeds[i]}
		// A fresh copy per op, as if just loaded: column statistics a
		// previous op cached on the shared dataset would otherwise make
		// every rotation after the first cheaper than a user's one call.
		ds := w.data[i].Clone()
		var res *catdb.Result
		t0 := time.Now()
		if ph.probe != nil {
			res, err = catdb.PipGenObserved(ds, client, opts, ph.probe.tracer, ph.probe.metrics)
		} else {
			res, err = catdb.PipGen(ds, client, opts)
		}
		secs := time.Since(t0).Seconds()
		if err != nil {
			ph.fail("pipgen %s/%s/β=%d: %v", c.dataset, c.model, c.chains, err)
			continue
		}
		if msg := w.check(i, res); msg != "" {
			ph.fail("pipgen %s/%s/β=%d: %s", c.dataset, c.model, c.chains, msg)
			continue
		}
		ph.time("op", secs)
		ph.add("rows", float64(w.rows[i]))
		ph.time("refine", res.RefineTime.Seconds())
		ph.time("profile", res.ProfileTime.Seconds())
		ph.time("gen", res.GenTime.Seconds())
		ph.time("exec", res.ExecTime.Seconds())
		ph.add("tokens", float64(res.Cost.Total()))
		ph.add("error_tokens", float64(res.Cost.ErrorTokens()))
		ph.add("attempts", float64(res.Cost.Attempts))
		ph.add("llm_calls", float64(res.Cost.LLMCalls))
		ph.add("kb_fixes", float64(res.Cost.KBFixes))
		ph.add("llm_fixes", float64(res.Cost.LLMFixes))
		if res.Handcrafted {
			ph.add("handcrafted", 1)
		}
	}
}

// check holds a result to the generator's stated contracts: scores are
// AUC or R² scaled to [0, 100], and a run is a pure function of its
// dataset, model, seed and options, so a repeated cell reproduces its
// pipeline source and score exactly.
func (w *pipgen) check(i int, res *catdb.Result) string {
	if res.Exec == nil {
		return "no execution result"
	}
	score := res.Exec.Primary()
	if math.IsNaN(score) || score < 0 || score > 100 {
		return fmt.Sprintf("score %v outside [0, 100]", score)
	}
	first := w.first[i]
	if first == nil {
		w.first[i] = res
		return ""
	}
	if res.Pipeline != first.Pipeline {
		return "repeated cell generated a different pipeline"
	}
	if math.Float64bits(score) != math.Float64bits(first.Exec.Primary()) {
		return fmt.Sprintf("repeated cell scored %v, first run %v", score, first.Exec.Primary())
	}
	return ""
}

func (w *pipgen) endToEnd(ph *phase) []metric {
	ops := float64(len(ph.lat["op"]))
	out := []metric{
		{"op_s_p50", "s", median(ph.lat["op"]), fmt.Sprintf("n=%d PipGen calls", len(ph.lat["op"]))},
		{"rows_per_s", "rows/s", ratio(ph.total["rows"], sum(ph.lat["op"])),
			fmt.Sprintf("%.0f dataset rows / %.3f s in PipGen", ph.total["rows"], sum(ph.lat["op"]))},
	}
	out = append(out, tail("op_s", ph.lat["op"], 90, 1, "s"))
	out = append(out, metric{"tokens_per_op", "tokens", ratio(ph.total["tokens"], ops),
		fmt.Sprintf("%.0f tokens / %.0f ops", ph.total["tokens"], ops)})
	return out
}

func (w *pipgen) perLayer(ph *phase) []metric {
	ops := float64(len(ph.lat["op"]))
	n := len(ph.lat["op"])
	per := func(name, key, unit string) metric {
		return metric{name, unit, ratio(ph.total[key], ops), fmt.Sprintf("%.0f / %.0f ops", ph.total[key], ops)}
	}
	fixes := ph.total["kb_fixes"] + ph.total["llm_fixes"]
	execs := float64(ph.probe.metrics.Counter("catdb_pipescript_execs_total").Value())
	return []metric{
		{"core.refine_s", "s", median(ph.lat["refine"]), fmt.Sprintf("median, n=%d", n)},
		{"core.profile_s", "s", median(ph.lat["profile"]), fmt.Sprintf("median, n=%d", n)},
		{"core.gen_s", "s", median(ph.lat["gen"]), fmt.Sprintf("median, n=%d", n)},
		{"core.exec_s", "s", median(ph.lat["exec"]), fmt.Sprintf("median, n=%d", n)},
		per("core.attempts_per_op", "attempts", "count"),
		per("llm.calls_per_op", "llm_calls", "count"),
		per("llm.tokens_per_op", "tokens", "count"),
		per("llm.error_tokens_per_op", "error_tokens", "count"),
		{"errkb.kb_fix_ratio", "ratio", ratio(ph.total["kb_fixes"], fixes),
			fmt.Sprintf("%.0f KB fixes / %.0f fixes", ph.total["kb_fixes"], fixes)},
		{"errkb.handcrafted_ratio", "ratio", ratio(ph.total["handcrafted"], ops),
			fmt.Sprintf("%.0f handcrafted / %.0f ops", ph.total["handcrafted"], ops)},
		{"pipescript.execs_per_op", "count", ratio(execs, ops),
			fmt.Sprintf("%.0f catdb_pipescript_execs_total / %.0f ops", execs, ops)},
	}
}
