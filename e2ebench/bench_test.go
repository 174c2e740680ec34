package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {100, 4}, {25, 1.75}} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		p    float64
		ok   bool
	}{
		{100, 90, 90, true},    // 10 beyond p90
		{99, 90, 75, true},     // 9 beyond p90, 24 beyond p75
		{1000, 99, 99, true},   // 10 beyond p99
		{999, 99, 95, true},    // 9 beyond p99
		{40, 90, 75, true},     // 10 beyond p75
		{39, 90, 0, false},     // 9 beyond p75: only the median is left
		{5, 90, 0, false},      // prep-large's sample count
		{2000, 90, 90, true},   // never above the percentile asked for
		{100000, 99, 99, true}, // enough for p99.9, still p99
	} {
		p, ok := tailPercentile(c.n, c.want)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d, %v) = %v, %v; want %v, %v", c.n, c.want, p, ok, c.p, c.ok)
		}
	}
}

// handProfile is a CPU profile built by hand: each stack is leaf first.
var handProfile = []cpuSample{
	{[]string{"runtime.mallocgc", "catdb/internal/data.(*Column).computeSummary",
		"catdb/internal/pipescript.(*Executor).Execute", "catdb.PipGen", "main.main"}, 30e6},
	{[]string{"sort.Float64s", "catdb/internal/ml.(*Tree).fitRows",
		"catdb/internal/pool.Map[go.shape.struct {}].func1"}, 50e6},
	{[]string{"catdb/internal/pool.Map[go.shape.struct {}].func1", "runtime.goexit"}, 10e6},
	{[]string{"catdb/internal/obs/opsserver.(*Server).serve"}, 10e6},
	{[]string{"runtime.gcBgMarkWorker"}, 20e6},
	{[]string{"runtime.scanobject", "runtime.gcDrain", "internal/runtime/atomic.Load", "runtime.gcBgMarkWorker"}, 20e6},
	{[]string{"encoding/csv.(*Writer).Write", "main.renderCSV", "main.main", "runtime.main"}, 10e6},
	{nil, 10e6},
}

func TestFoldLayers(t *testing.T) {
	got := foldLayers(handProfile)
	want := map[string]float64{"data": 0.03, "ml": 0.05, "pool": 0.01, "obs": 0.01, "runtime": 0.05, "other": 0.01}
	if len(got) != len(want) {
		t.Fatalf("layers %v, want %v", got, want)
	}
	for l, v := range want {
		if d := got[l] - v; d > 1e-12 || d < -1e-12 {
			t.Errorf("%s = %v s, want %v s", l, got[l], v)
		}
	}
	var table bytes.Buffer
	if err := writeLayerTable(&table, got, 4); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(table.String()), "\n")
	if !strings.HasPrefix(lines[1], "ml ") || !strings.HasPrefix(lines[len(lines)-1], "total") {
		t.Errorf("layer table not largest first:\n%s", table.String())
	}
}

// pbField appends one protobuf field: a varint for an int, the bytes for
// a []byte or string.
func pbField(b []byte, num int, v any) []byte {
	switch x := v.(type) {
	case int:
		b = binary.AppendUvarint(b, uint64(num)<<3)
		return binary.AppendUvarint(b, uint64(x))
	case string:
		return pbField(b, num, []byte(x))
	case []byte:
		b = binary.AppendUvarint(b, uint64(num)<<3|2)
		b = binary.AppendUvarint(b, uint64(len(x)))
		return append(b, x...)
	}
	panic("pbField: unsupported value")
}

func packed(xs ...int) []byte {
	var b []byte
	for _, x := range xs {
		b = binary.AppendUvarint(b, uint64(x))
	}
	return b
}

func TestParseCPUProfileHandEncoded(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"catdb/internal/ml.(*Tree).fitRows", "sort.Float64s", "main.main"}
	var p []byte
	p = pbField(p, 1, pbField(pbField(nil, 1, 1), 2, 2)) // samples/count
	p = pbField(p, 1, pbField(pbField(nil, 1, 3), 2, 4)) // cpu/nanoseconds
	// Sample 1: packed ids and values. Location 1 holds sort.Float64s
	// inlined into fitRows; location 2 is main.main.
	p = pbField(p, 2, pbField(pbField(nil, 1, packed(1, 2)), 2, packed(3, 30000000)))
	// Sample 2: one unpacked location and unpacked values.
	p = pbField(p, 2, pbField(pbField(pbField(nil, 1, 2), 2, 1), 2, 10000000))
	line := func(fn int) []byte { return pbField(nil, 1, fn) }
	p = pbField(p, 4, pbField(pbField(pbField(nil, 1, 1), 4, line(2)), 4, line(1)))
	p = pbField(p, 4, pbField(pbField(nil, 1, 2), 4, line(3)))
	p = pbField(p, 5, pbField(pbField(nil, 1, 1), 2, 5))
	p = pbField(p, 5, pbField(pbField(nil, 1, 2), 2, 6))
	p = pbField(p, 5, pbField(pbField(nil, 1, 3), 2, 7))
	for _, s := range strs {
		p = pbField(p, 6, s)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	samples, err := parseCPUProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("%d samples, want 2", len(samples))
	}
	want := "sort.Float64s catdb/internal/ml.(*Tree).fitRows main.main"
	if got := strings.Join(samples[0].stack, " "); got != want || samples[0].nanos != 30e6 {
		t.Errorf("sample 0 = %q %d ns, want %q 30000000 ns", got, samples[0].nanos, want)
	}
	if got := strings.Join(samples[1].stack, " "); got != "main.main" || samples[1].nanos != 10e6 {
		t.Errorf("sample 1 = %q %d ns", got, samples[1].nanos)
	}
	if l := foldLayers(samples); l["ml"] != 0.03 || l["other"] != 0.01 {
		t.Errorf("fold = %v", l)
	}
	if _, err := parseCPUProfile([]byte("not gzip")); err == nil {
		t.Error("garbage parsed without error")
	}
}

//go:noinline
func spin(d time.Duration) (x float64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += float64(i) * 1e-9
		}
	}
	return x
}

func TestParseCPUProfileFromRuntime(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var spun int64
	for _, s := range samples {
		if len(s.stack) > 0 && strings.HasSuffix(s.stack[0], ".spin") {
			spun += s.nanos
		}
	}
	if spun == 0 {
		t.Fatalf("no CPU time in spin among %d samples", len(samples))
	}
}

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	check := func(kind string, decl []struct{ Name, Unit string }, ours []gated) {
		if len(decl) != len(ours) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", kind, len(decl), len(ours))
		}
		for i := range ours {
			if decl[i].Name != ours[i].name || decl[i].Unit != ours[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, benchmark %s %s", kind, i,
					decl[i].Name, decl[i].Unit, ours[i].name, ours[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

// TestSmoke runs every workload at tiny scale, untraced and traced, with
// its output checks on.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{seed: 7, seconds: 0.05, trace: trace, out: t.TempDir(), tiny: true}
			res, err := runWorkload(w.name, cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, g := range want {
				m, ok := res.Metrics[g.name]
				if !ok || m.Unit != g.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, g.name, m, g.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, g.name, m.Value)
				}
			}
			if trace {
				for _, f := range []string{"spans.jsonl", "metrics.prom", "layers.txt", "cpu.pprof"} {
					if _, err := os.Stat(cfg.out + "/" + w.name + "-seed7/" + f); err != nil {
						t.Errorf("%s: traced output %s: %v", w.name, f, err)
					}
				}
			}
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	cfg := config{seed: 3, tiny: true}
	a, err := setupPrepLarge(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := setupPrepLarge(cfg)
	c, _ := setupPrepLarge(config{seed: 4, tiny: true})
	if !bytes.Equal(a.(*prepLarge).csv, b.(*prepLarge).csv) {
		t.Error("same seed rendered different CSVs")
	}
	if bytes.Equal(a.(*prepLarge).csv, c.(*prepLarge).csv) {
		t.Error("different seeds rendered the same CSV")
	}
	if cellSeed(1, 0, pipgenCells[0]) == cellSeed(2, 0, pipgenCells[0]) {
		t.Error("cell seed ignores the workload seed")
	}
}

// The output checks must catch a wrong answer, not only pass right ones.
func TestChecksCatchWrongOutputs(t *testing.T) {
	w, err := setupServe(config{seed: 5, tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	s := w.(*serve)
	s.ref = append([]float64(nil), s.ref...)
	for i := range s.ref {
		s.ref[i] += 1
	}
	ph := newPhase(nil)
	s.round(ph)
	if ph.failed != ph.attempted {
		t.Errorf("serve: %d of %d requests failed against shifted references, want all", ph.failed, ph.attempted)
	}

	pw, err := setupPrepLarge(config{seed: 5, tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	p := pw.(*prepLarge)
	ph = newPhase(nil)
	p.round(ph)
	p.artifact = append(p.artifact[:len(p.artifact):len(p.artifact)], ' ')
	p.round(ph)
	if ph.failed != 1 {
		t.Errorf("prep-large: %d failed ops, want 1 (the op after the artifact changed)", ph.failed)
	}
	// Same shape, rows in another order: only the cell comparison sees it.
	rev := make([]int, p.src.NumRows())
	for i := range rev {
		rev[i] = len(rev) - 1 - i
	}
	p.src = p.src.SelectRows(rev)
	p.round(ph)
	if ph.failed != 2 || !strings.Contains(strings.Join(ph.failures, "\n"), "round trip") {
		t.Errorf("prep-large: ingest round trip not checked: %v", ph.failures)
	}

	gw, err := setupPipgen(config{seed: 5, tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	g := gw.(*pipgen)
	ph = newPhase(nil)
	g.round(ph)
	for _, r := range g.first {
		r.Pipeline += "\n"
	}
	g.round(ph)
	if ph.failed != len(g.cells) {
		t.Errorf("pipgen: %d failed ops after the first pipelines changed, want %d", ph.failed, len(g.cells))
	}
}
