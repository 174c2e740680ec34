package pipescript

import (
	"fmt"
	"math/rand"
	"testing"

	"catdb/internal/bench/baseline"
	"catdb/internal/data"
)

// shardBenchTable builds a 4-column, rows-row table with injected
// missing cells: a deep elementwise chain over few columns is the best
// case for row sharding.
func shardBenchTable(rows int) *data.Table {
	rng := rand.New(rand.NewSource(23))
	tab := data.NewTable("shardbench")
	for c := 0; c < 3; c++ {
		vals := make([]float64, rows)
		for i := range vals {
			vals[i] = rng.NormFloat64()*float64(c+1) + 2.0
		}
		col := data.NewNumeric(fmt.Sprintf("num%d", c), vals)
		for i := c; i < rows; i += 101 {
			col.SetMissing(i)
		}
		tab.MustAddColumn(col)
	}
	cats := []string{" alpha", "Alpha", "beta ", "gamma", "delta"}
	vals := make([]string, rows)
	for i := range vals {
		vals[i] = cats[i%len(cats)]
	}
	tab.MustAddColumn(data.NewString("cat", vals))
	return tab
}

// BenchmarkShardElementwise measures row-sharded execution of a deep
// elementwise chain over a 1M-row table. The chain is column-dependent
// (each op consumes its predecessor's output), so any speedup comes from
// the row-shard axis.
//
// `make bench` runs this twice: BENCH_BASELINE=shard (alias:
// BENCH_SHARD_MODE=serial) captures the serial row-loop baseline into
// BENCH_shard.json, then the default sharded pass records the parallel
// numbers against it.
func BenchmarkShardElementwise(b *testing.B) {
	const rows = 1_000_000
	base := shardBenchTable(rows)
	p, err := Parse(`pipeline "chain"
impute "num0" strategy=median
winsorize "num0"
log_transform "num0"
scale "num0" method=standard
impute "num1" strategy=mean
clip_outliers "num1" method=iqr factor=2.5
scale "num1" method=minmax
bin_numeric "num2" bins=16
dedup_values "cat"
onehot "cat"
`)
	if err != nil {
		b.Fatal(err)
	}
	shardRows := 0 // default chunk size
	if baseline.Lane("shard", "BENCH_SHARD_MODE", "serial") {
		shardRows = -1 // serial row loops
	}
	for _, workers := range []int{4} {
		name := fmt.Sprintf("rows=%d/workers=%d", rows, workers)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tr := base.Clone()
				te := base.Head(512)
				ex := &Executor{Seed: 1, AllowNoTrain: true, Workers: workers, ShardRows: shardRows}
				b.StartTimer()
				if _, err := ex.Execute(p, tr, te); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardBatchScore measures batched serving: one artifact is
// fitted up front, then each iteration transforms and scores a 500k-row
// batch through the fitted pipeline. The serial lane disables the row
// sharder; the default pass shards at the default chunk size.
func BenchmarkShardBatchScore(b *testing.B) {
	const batchRows = 500_000
	fitTab := shardBenchTable(20_000)
	labels := make([]string, 20_000)
	for i := range labels {
		labels[i] = []string{"no", "yes", "maybe"}[i%3]
	}
	fitTab.MustAddColumn(data.NewString("y", labels))
	p, err := Parse(`pipeline "score"
impute "num0" strategy=median
scale "num0" method=standard
impute "num1" strategy=mean
impute "num2" strategy=median
log_transform "num2"
dedup_values "cat"
onehot "cat"
train model=random_forest target="y" trees=15
`)
	if err != nil {
		b.Fatal(err)
	}
	tr, te := fitTab.Split(0.8, 7)
	ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 1}
	_, fp, err := ex.Fit(p, tr, te)
	if err != nil {
		b.Fatal(err)
	}
	batch := shardBenchTable(batchRows)
	serial := baseline.Lane("shard", "BENCH_SHARD_MODE", "serial")
	for _, workers := range []int{4} {
		name := fmt.Sprintf("batch=%d/workers=%d", batchRows, workers)
		b.Run(name, func(b *testing.B) {
			fp.Workers = workers
			if serial {
				fp.ShardRows = -1
			} else {
				fp.ShardRows = 0
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fp.Predict(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
