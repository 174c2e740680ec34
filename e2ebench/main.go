// Command e2ebench is CatDB's end-to-end benchmark. It drives the public
// catdb API with default options, one closed-loop client, on one of three
// workloads (see README.md for why each exists):
//
//	pipgen      one PipGen call per op over a fixed rotation of cells
//	prep-large  ReadCSV of a 100k-row CSV, then FitPipeline of a fixed pipeline
//	serve       Predict requests on a fitted forest artifact
//
// Usage:
//
//	e2ebench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it runs half the time untraced and half traced (spans,
// metrics registry, CPU profile) and reports per-layer metrics. The last
// line of standard output is one JSON object; the lines before it give
// every metric with its unit and sample count. Any failed op or output
// check makes the exit code non-zero.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// gated names a metric BENCHMARK.json declares, with its unit.
type gated struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, in BENCHMARK.json
// order; every workload reports each of them.
var endToEnd = []gated{
	{"setup_s", "s"}, {"op_s_p50", "s"}, {"rows_per_s", "rows/s"}, {"peak_rss_mb", "MB"},
}

// cpuLayers are the layers the CPU fold reports: the internal packages
// the catdb API reaches, the Go runtime, and everything else.
var cpuLayers = []string{
	"catalog", "core", "data", "embed", "errkb", "llm", "ml", "obs",
	"pipescript", "pool", "profile", "prompt", "runtime", "other",
}

// perLayer are the metrics a traced run reports, in BENCHMARK.json order.
var perLayer = func() []gated {
	out := []gated{
		{"core.refine_s", "s"}, {"core.profile_s", "s"}, {"core.gen_s", "s"}, {"core.exec_s", "s"},
		{"core.attempts_per_op", "count"}, {"llm.calls_per_op", "count"},
		{"llm.tokens_per_op", "count"}, {"llm.error_tokens_per_op", "count"},
		{"errkb.kb_fix_ratio", "ratio"}, {"errkb.handcrafted_ratio", "ratio"},
		{"data.ingest_s", "s"}, {"data.ingest_mb_per_s", "MB/s"},
		{"pipescript.execs_per_op", "count"}, {"pipescript.transform_us_p50", "us"},
	}
	for _, l := range cpuLayers {
		out = append(out, gated{l + ".cpu_s_per_op", "s"})
	}
	return append(out, gated{"runtime.gc_cpu_share", "ratio"}, gated{"runtime.alloc_mb_per_op", "MB"},
		gated{"pool.busy_ratio", "ratio"}, gated{"obs.trace_overhead_ratio", "ratio"})
}()

// A run builds its workload at least minSetups times and until the builds
// have taken setupBudget seconds; setup_s is their median, so neither one
// slow first build nor a millisecond-scale set-up's jitter sets it.
const (
	minSetups   = 3
	maxSetups   = 100
	setupBudget = 1.0
)

type config struct {
	seed    int64
	seconds float64
	trace   bool
	out     string
	// tiny shrinks every workload's inputs for the benchmark's own tests.
	tiny bool
}

// metric is one reported number; note carries its sample count, or the
// numerator and denominator of a ratio.
type metric struct {
	name  string
	unit  string
	value float64
	note  string
}

// workload is one of the benchmark's fixed input mixes.
type workload interface {
	// round runs one whole unit of the mix (a pipgen rotation, a
	// prep-large op, a serve interleave), recording into ph.
	round(ph *phase)
	// endToEnd reports op_s_p50 and rows_per_s first, then any
	// workload-specific metrics that are printed but not gated.
	endToEnd(ph *phase) []metric
	// perLayer reports the workload's own per-layer metrics from the
	// traced phase.
	perLayer(ph *phase) []metric
}

var workloads = []struct {
	name  string
	setup func(cfg config) (workload, error)
}{
	{"pipgen", setupPipgen},
	{"prep-large", setupPrepLarge},
	{"serve", setupServe},
}

// phase collects one measured stretch of rounds.
type phase struct {
	probe     *probe // nil when untraced
	rounds    int
	attempted int
	failed    int
	failures  []string
	lat       map[string][]float64 // named latency samples, seconds
	total     map[string]float64   // named running totals
	rss       []float64            // per-round peak RSS, MB
}

func newPhase(p *probe) *phase {
	return &phase{probe: p, lat: map[string][]float64{}, total: map[string]float64{}}
}

func (ph *phase) time(name string, secs float64) { ph.lat[name] = append(ph.lat[name], secs) }
func (ph *phase) add(name string, v float64)     { ph.total[name] += v }

// fail records a failed op; the first few reasons are printed.
func (ph *phase) fail(format string, args ...any) {
	ph.failed++
	if len(ph.failures) < 5 {
		ph.failures = append(ph.failures, fmt.Sprintf(format, args...))
	}
}

// measure runs whole rounds until they have taken secs and at least
// minRounds have run; with secs 0 it runs exactly minRounds. With
// trackRSS each round starts from a collected heap with the peak-RSS mark
// reset, and records its own peak: one round's peak is steadier than the
// highest of many, which garbage-collector timing decides.
func measure(w workload, secs float64, minRounds int, p *probe, trackRSS bool) (*phase, error) {
	ph := newPhase(p)
	var elapsed time.Duration
	for ph.rounds < minRounds || elapsed.Seconds() < secs {
		if trackRSS {
			debug.FreeOSMemory()
			if err := resetPeakRSS(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		w.round(ph)
		elapsed += time.Since(t0)
		ph.rounds++
		if trackRSS {
			rss, err := peakRSSMB()
			if err != nil {
				return nil, err
			}
			ph.rss = append(ph.rss, rss)
		}
	}
	return ph, nil
}

// result is the benchmark's final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload sets a workload up several times, measures it, and
// returns its metrics: the end-to-end set, or with cfg.trace the
// per-layer set. Text lines for every metric go to log.
func runWorkload(name string, cfg config, log io.Writer) (*result, error) {
	var setup func(config) (workload, error)
	for _, w := range workloads {
		if w.name == name {
			setup = w.setup
		}
	}
	if setup == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	var w workload
	var setupSecs []float64
	for len(setupSecs) < minSetups || (sum(setupSecs) < setupBudget && len(setupSecs) < maxSetups) {
		w = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = setup(cfg); err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
	}
	fmt.Fprintf(log, "workload %s seed %d seconds %g trace %v GOMAXPROCS %d\n",
		name, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0))

	var ms []metric
	var phases []*phase
	if !cfg.trace {
		// Two rounds at least, so pipgen repeats every cell once.
		ph, err := measure(w, cfg.seconds, 2, nil, true)
		if err != nil {
			return nil, err
		}
		phases = []*phase{ph}
		ms = append(ms, metric{"setup_s", "s", median(setupSecs), fmt.Sprintf("median of %d setups", len(setupSecs))})
		ms = append(ms, w.endToEnd(ph)...)
		ms = append(ms, metric{"peak_rss_mb", "MB", median(ph.rss),
			fmt.Sprintf("median over %d rounds of the round's peak RSS", len(ph.rss))})
		ms = append(ms, metric{"fail_ratio", "ratio", ratio(float64(ph.failed), float64(ph.attempted)),
			fmt.Sprintf("%d failed / %d attempted", ph.failed, ph.attempted)})
	} else {
		// The traced phase repeats the untraced phase's rounds, so the
		// overhead ratio compares the same mix.
		base, err := measure(w, cfg.seconds/2, 1, nil, false)
		if err != nil {
			return nil, err
		}
		p, err := startProbe()
		if err != nil {
			return nil, err
		}
		traced, err := measure(w, 0, base.rounds, p, false)
		p.stop()
		if err != nil {
			return nil, err
		}
		phases = []*phase{base, traced}
		ops := traced.attempted - traced.failed
		dir := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d", name, cfg.seed))
		layer, err := p.layerMetrics(ops, dir)
		if err != nil {
			return nil, err
		}
		ms = append(ms, w.perLayer(traced)...)
		ms = append(ms, layer...)
		b, t := median(base.lat["op"]), median(traced.lat["op"])
		ms = append(ms, metric{"obs.trace_overhead_ratio", "ratio", t/b - 1,
			fmt.Sprintf("traced op p50 %.6g s (n=%d) / untraced %.6g s (n=%d) - 1",
				t, len(traced.lat["op"]), b, len(base.lat["op"]))})
		fmt.Fprintf(log, "traced outputs in %s\n", dir)
	}

	res := &result{Metrics: map[string]jsonMetric{}}
	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		for _, f := range ph.failures {
			fmt.Fprintf(log, "FAIL %s\n", f)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	got := map[string]metric{}
	for _, m := range ms {
		got[m.name] = m
	}
	for _, m := range ms {
		fmt.Fprintf(log, "  %-28s %14s %-6s %s\n", m.name, fmtValue(m.value), m.unit, m.note)
	}
	for _, g := range want {
		m, ok := got[g.name]
		if !ok {
			// A layer this workload never reaches does no work there.
			m = metric{name: g.name, unit: g.unit}
			fmt.Fprintf(log, "  %-28s %14s %-6s %s\n", g.name, "0", g.unit, "not reached by this workload")
		}
		if m.unit != g.unit || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("%s: metric %s = %v %s, want a finite value in %s", name, m.name, m.value, m.unit, g.unit)
		}
		res.Metrics[g.name] = jsonMetric{m.value, m.unit}
	}
	return res, nil
}

func fmtValue(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// resetPeakRSS sets the process's peak resident set size to its current
// one (Linux clear_refs code 5).
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak rss: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, fmt.Errorf("peak rss: %w", err)
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, errors.New("peak rss: no VmHWM in /proc/self/status")
}

func main() {
	name := flag.String("workload", "", "pipgen | prep-large | serve | all")
	seed := flag.Int64("seed", 1, "workload seed: cell order, LLM seeds, splits, request interleave")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "trace"), "directory for traced-run outputs")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}

	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	final := &result{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, n := range names {
		res, err := runWorkload(n, cfg, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(names) > 1 {
				k = n + "." + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}
