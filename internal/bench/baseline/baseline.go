// Package baseline resolves which benchmark comparison lane a bench run
// captures. Every two-pass benchmark in the repo (pre-optimization
// baseline pass, then the current implementation) selects its baseline
// pass through one documented convention:
//
//	BENCH_BASELINE=<lane>
//
// where <lane> names the subsystem: "data" (deep-copy gather), "ingest"
// (serial single-chunk parse), or "shard" (serial elementwise row
// loops). The historical per-subsystem variables (BENCH_DATA_MODE=deep,
// BENCH_INGEST_MODE=legacy, BENCH_SHARD_MODE=serial) remain supported as
// aliases so existing invocations keep working.
//
// The package is a leaf (it imports only os) so bench files anywhere —
// including internal/data, which internal/bench itself imports — can
// use it without import cycles.
package baseline

import "os"

// Lane reports whether the current run should capture the named lane's
// baseline: BENCH_BASELINE equals lane, or the lane's legacy variable
// carries its legacy value.
func Lane(lane, legacyVar, legacyValue string) bool {
	if os.Getenv("BENCH_BASELINE") == lane {
		return true
	}
	return legacyVar != "" && os.Getenv(legacyVar) == legacyValue
}
