package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"time"

	"catdb"
	"catdb/internal/pool"
)

// probe holds what the traced phase records: the span tracer and metrics
// registry handed to the public API, the worker pool's busy-time counter,
// a CPU profile, and runtime counters read before and after. Everything
// is started here, from the benchmark's side of the API.
type probe struct {
	tracer  *catdb.Tracer
	metrics *catdb.Metrics
	cpu     bytes.Buffer
	start   time.Time
	wall    float64
	before  []rtmetrics.Sample
	after   []rtmetrics.Sample
}

var runtimeCounters = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() []rtmetrics.Sample {
	s := make([]rtmetrics.Sample, len(runtimeCounters))
	for i, name := range runtimeCounters {
		s[i].Name = name
	}
	rtmetrics.Read(s)
	return s
}

func startProbe() (*probe, error) {
	p := &probe{tracer: catdb.NewTracer(), metrics: catdb.NewMetrics()}
	pool.SetMetrics(p.metrics)
	runtime.GC() // start the traced phase from a collected heap
	if err := pprof.StartCPUProfile(&p.cpu); err != nil {
		pool.SetMetrics(nil)
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	p.before = readRuntime()
	p.start = time.Now()
	return p, nil
}

func (p *probe) stop() {
	p.wall = time.Since(p.start).Seconds()
	p.after = readRuntime()
	pprof.StopCPUProfile()
	pool.SetMetrics(nil)
}

// delta returns how much runtime counter i grew over the traced phase.
func (p *probe) delta(i int) float64 {
	v := func(s rtmetrics.Sample) float64 {
		if s.Value.Kind() == rtmetrics.KindUint64 {
			return float64(s.Value.Uint64())
		}
		if s.Value.Kind() == rtmetrics.KindFloat64 {
			return s.Value.Float64()
		}
		return 0
	}
	return v(p.after[i]) - v(p.before[i])
}

// layerMetrics folds the traced phase into the per-layer metrics every
// workload reports, and writes spans, metrics, the CPU profile and the
// layer table under dir.
func (p *probe) layerMetrics(ops int, dir string) ([]metric, error) {
	samples, err := parseCPUProfile(p.cpu.Bytes())
	if err != nil {
		return nil, err
	}
	layers := foldLayers(samples)
	if err := p.write(dir, layers, ops); err != nil {
		return nil, err
	}
	n := float64(ops)
	var out []metric
	for _, l := range cpuLayers {
		out = append(out, metric{l + ".cpu_s_per_op", "s", ratio(layers[l], n),
			fmt.Sprintf("%.4f cpu-s / %d ops, %d samples", layers[l], ops, len(samples))})
	}
	gc, total, idle := p.delta(0), p.delta(1), p.delta(2)
	out = append(out, metric{"runtime.gc_cpu_share", "ratio", ratio(gc, total-idle),
		fmt.Sprintf("%.4f gc cpu-s / %.4f busy cpu-s", gc, total-idle)})
	allocMB := p.delta(3) / 1e6
	out = append(out, metric{"runtime.alloc_mb_per_op", "MB", ratio(allocMB, n),
		fmt.Sprintf("%.1f MB / %d ops", allocMB, ops)})
	busy := float64(p.metrics.Counter("catdb_pool_worker_busy_ns_total").Value()) / 1e9
	procs := runtime.GOMAXPROCS(0)
	out = append(out, metric{"pool.busy_ratio", "ratio", ratio(busy, p.wall*float64(procs)),
		fmt.Sprintf("%.4f busy-s / (%.4f s x %d procs)", busy, p.wall, procs)})
	return out, nil
}

func (p *probe) write(dir string, layers map[string]float64, ops int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var spans, prom, table bytes.Buffer
	if err := p.tracer.WriteJSONL(&spans); err != nil {
		return err
	}
	if err := p.metrics.WriteProm(&prom); err != nil {
		return err
	}
	if err := writeLayerTable(&table, layers, ops); err != nil {
		return err
	}
	for name, b := range map[string][]byte{
		"spans.jsonl": spans.Bytes(), "metrics.prom": prom.Bytes(),
		"layers.txt": table.Bytes(), "cpu.pprof": p.cpu.Bytes(),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
