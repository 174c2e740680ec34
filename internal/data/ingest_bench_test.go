package data

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"catdb/internal/bench/baseline"
)

// The Ingest* benchmarks measure cold CSV parse (serial and
// chunked-parallel) and cold summary builds (exact vs sketch) on
// synthetic mixed-kind tables. With BENCH_BASELINE=ingest the parse
// benchmarks run the old ReadAll-based reader (readCSVLegacy) so the
// committed BENCH_ingest.json baseline can be re-captured:
//
//	BENCH_BASELINE=ingest go test -bench=Ingest ... | benchjson -set-baseline
//	go test -bench=Ingest ...                       | benchjson
const (
	ingestBenchSmall = 100_000
	ingestBenchLarge = 1_000_000
)

func ingestLegacyMode() bool { return baseline.Lane("ingest") }

// ingestBenchCSV renders a mixed-kind table (ints, floats, bools,
// categoricals, quoted free text with embedded commas, scattered
// missing cells) to CSV bytes, memoized per row count so the large
// input is generated once per test binary.
var ingestBenchCache = map[int][]byte{}

func ingestBenchCSV(rows int) []byte {
	if raw, ok := ingestBenchCache[rows]; ok {
		return raw
	}
	rng := rand.New(rand.NewSource(int64(rows)))
	cats := [...]string{"alpha", "beta", "gamma", "delta", "epsilon"}
	var buf bytes.Buffer
	buf.WriteString("id,num1,num2,int1,cat,flag,text,score\n")
	for i := 0; i < rows; i++ {
		num := fmt.Sprintf("%.4f", rng.NormFloat64()*100)
		if i%97 == 13 {
			num = "" // missing cell
		}
		fmt.Fprintf(&buf, "%d,%s,%.2f,%d,%s,%t,\"item %d, cell\",%.3f\n",
			i, num, rng.Float64()*1e6, rng.Intn(1000),
			cats[rng.Intn(len(cats))], rng.Intn(2) == 0, i, rng.Float64())
	}
	ingestBenchCache[rows] = buf.Bytes()
	return ingestBenchCache[rows]
}

// benchIngestParse times cold parses of a rows-row table; workers > 0
// pins the pool width (runtime.GOMAXPROCS) for the benchmark.
func benchIngestParse(b *testing.B, rows, workers int) {
	if workers > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	}
	raw := ingestBenchCSV(rows)
	legacy := ingestLegacyMode()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if legacy {
			_, err = readCSVLegacy(bytes.NewReader(raw), "bench")
		} else {
			_, err = ReadCSV(bytes.NewReader(raw), "bench")
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIngestSerial100k(b *testing.B)   { benchIngestParse(b, ingestBenchSmall, 1) }
func BenchmarkIngestSerial1M(b *testing.B)     { benchIngestParse(b, ingestBenchLarge, 1) }
func BenchmarkIngestParallel100k(b *testing.B) { benchIngestParse(b, ingestBenchSmall, 0) }
func BenchmarkIngestParallel1M(b *testing.B)   { benchIngestParse(b, ingestBenchLarge, 0) }

// benchIngestSummary times a cold summary build over every column of the
// parsed table. It calls the compute functions directly (not SummaryWith)
// so the per-column memo cache never hides the work being measured.
func benchIngestSummary(b *testing.B, rows int, backend SummaryBackend) {
	t, err := ReadCSV(bytes.NewReader(ingestBenchCSV(rows)), "bench")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range t.Cols {
			if backend == SummarySketch {
				_ = c.computeSummarySketch()
			} else {
				_ = c.computeSummary()
			}
		}
	}
}

func BenchmarkIngestSummaryExact100k(b *testing.B) {
	benchIngestSummary(b, ingestBenchSmall, SummaryExact)
}
func BenchmarkIngestSummaryExact1M(b *testing.B) {
	benchIngestSummary(b, ingestBenchLarge, SummaryExact)
}
func BenchmarkIngestSummarySketch100k(b *testing.B) {
	benchIngestSummary(b, ingestBenchSmall, SummarySketch)
}
func BenchmarkIngestSummarySketch1M(b *testing.B) {
	benchIngestSummary(b, ingestBenchLarge, SummarySketch)
}
