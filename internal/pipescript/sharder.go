package pipescript

import (
	"time"

	"catdb/internal/data"
	"catdb/internal/obs"
	"catdb/internal/pool"
)

// This file is the row-shard execution engine. Elementwise op bodies —
// loops where output row i depends only on input row i — never touch
// the pool directly (`make lint-shard` enforces it); they hand their
// per-row loop to a sharder, which splits the row range into chunks of
// at most shardRows rows and fans the chunks out over internal/pool.
//
// Determinism contract: whether a loop shards, and into how many
// tasks, depends only on (row count, shardRows) — never on the worker
// count — so the catdb_shard_tasks_total counters are identical at any
// Workers setting, and every shard writes a disjoint row range of a
// column prepared with BeginShardWrite (see internal/data/shard.go),
// so results are bit-identical to the serial loop.
//
// Statements execute one after another and no shard body re-enters the
// sharder, so at most one fan-out is live per execution: each fan-out
// may use the executor's full worker count.

// defaultShardRows is the chunk size elementwise loops shard at when
// the caller does not set ShardRows. Columns at or under this length
// run serially — the fan-out overhead only pays for itself on slabs
// well past L2 size.
const defaultShardRows = 32768

// sharder fans elementwise row loops out over the pool. A nil sharder
// runs every body serially in the caller — helpers never need to
// special-case the serial path.
type sharder struct {
	shardRows int
	workers   int // pool width per fan-out (<= 0 = pool.DefaultWorkers())
	metrics   *obs.Registry
}

// newSharder builds the per-execution sharder. shardRows == 0 selects
// defaultShardRows; shardRows < 0 disables row sharding entirely (nil
// sharder), which is the serial baseline the bench two-pass captures.
func newSharder(shardRows, workers int, metrics *obs.Registry) *sharder {
	if shardRows < 0 {
		return nil
	}
	if shardRows == 0 {
		shardRows = defaultShardRows
	}
	return &sharder{shardRows: shardRows, workers: workers, metrics: metrics}
}

// transform runs an elementwise in-place body over col. Short columns
// (and a nil sharder) run the body directly on the live column; long
// columns are promoted once (BeginShardWrite), the body runs on
// disjoint ShardViews across pool workers, and the stats version bumps
// once after the join (EndShardWrite). The body must write only
// through row i of the view it is given.
func (sh *sharder) transform(op string, col *data.Column, body func(v *data.Column)) {
	if sh == nil || col.Len() <= sh.shardRows {
		body(col)
		return
	}
	start := obs.Now()
	ranges := data.ShardRanges(col.Len(), sh.shardRows)
	col.BeginShardWrite()
	pool.Each(sh.workers, len(ranges), func(k int) error {
		body(col.ShardView(ranges[k][0], ranges[k][1]))
		return nil
	})
	col.EndShardWrite()
	sh.record(op, len(ranges), start)
}

// ranges runs a disjoint-write fill loop over [0, n): builders that
// populate fresh output slabs (one-hot indicators, feature matrices,
// keep masks) receive [lo, hi) chunks and must write only indices
// inside their chunk. Reads of existing columns are safe to share —
// every accessor used here is a pure read.
func (sh *sharder) ranges(op string, n int, body func(lo, hi int)) {
	if sh == nil || n <= sh.shardRows {
		body(0, n)
		return
	}
	start := obs.Now()
	ranges := data.ShardRanges(n, sh.shardRows)
	pool.Each(sh.workers, len(ranges), func(k int) error {
		body(ranges[k][0], ranges[k][1])
		return nil
	})
	sh.record(op, len(ranges), start)
}

// record books the per-op shard metrics. Task counts depend only on
// row counts and shardRows, so they are deterministic at any worker
// count; only the duration histogram values vary run to run.
func (sh *sharder) record(op string, tasks int, start time.Time) {
	if sh.metrics == nil {
		return
	}
	sh.metrics.Counter("catdb_shard_tasks_total", "op", op).Add(int64(tasks))
	sh.metrics.Histogram("catdb_shard_seconds", obs.DefBuckets, "op", op).Observe(obs.Since(start).Seconds())
}
