# Development targets for the CatDB reproduction.

GO ?= go

.PHONY: build vet test race fuzz verify bench lint-fmt lint-encapsulation lint-obs lint-transform lint-optable lint-opbody lint-http lint-knobs

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The benchmark harness fans experiment cells out across a worker pool;
# the race detector guards the per-cell isolation invariants (own LLM
# client, own trace store, read-only shared datasets). internal/profile
# and internal/data cover the parallel profiler and concurrent
# column-summary / profile-cache paths; internal/ml covers the parallel
# ensemble fit/inference paths.
race:
	$(GO) test -race ./internal/bench/... ./internal/core/... ./internal/profile/... ./internal/data/... ./internal/ml/... ./internal/obs/... ./internal/pipescript/...

# Column storage is encapsulated behind accessors (Num/Str/IsMissing/
# SetNum/...): only internal/data may touch the backing slices, and the
# Touch() invalidation contract is gone. Fail on any reference to the old
# exported field names (or Touch) outside internal/data.
lint-encapsulation:
	@matches=$$(grep -rnE '\.(Nums|Strs|Missing)\b|\.Touch\(' --include='*.go' --exclude-dir=data .); \
	if [ -n "$$matches" ]; then \
		echo "lint-encapsulation: direct column-storage access outside internal/data:"; \
		echo "$$matches"; \
		exit 1; \
	fi

# Stage timing in internal/core flows through obs.Now/obs.Since so the
# span clock stays injectable and the GenTime/ExecTime split stays
# auditable. Fail on any raw time.Now there.
lint-obs:
	@matches=$$(grep -rnE 'time\.Now\(' --include='*.go' internal/core/); \
	if [ -n "$$matches" ]; then \
		echo "lint-obs: raw time.Now in internal/core (use obs.Now / obs.Since):"; \
		echo "$$matches"; \
		exit 1; \
	fi

# The serving half of the fit/transform split applies only recorded
# parameters: it must have no notion of a label column. Fail on any
# reference to the executor's Target field (or a target option lookup)
# in the transform-phase source.
lint-transform:
	@matches=$$(grep -n 'Target' internal/pipescript/transform.go); \
	if [ -n "$$matches" ]; then \
		echo "lint-transform: transform-phase code references the target column:"; \
		echo "$$matches"; \
		exit 1; \
	fi

# Op metadata (arity, column footprint, handlers) lives in
# one registry (pipescript/optable.go) consumed by the parser, executor,
# and analyzer. Fail on any op dispatch switch in the executor sources
# or any knownOps registration outside the registry.
lint-optable:
	@matches=$$(grep -nE 'switch (st|stmt)\.Op' internal/pipescript/exec.go internal/pipescript/ops_extra.go); \
	if [ -n "$$matches" ]; then \
		echo "lint-optable: op dispatch switch outside the op registry (use registerOp):"; \
		echo "$$matches"; \
		exit 1; \
	fi
	@matches=$$(grep -rnE 'knownOps\[[^]]*\] *=|registerOp\(' --include='*.go' internal/pipescript/ | grep -v 'optable.go'); \
	if [ -n "$$matches" ]; then \
		echo "lint-optable: op registration outside internal/pipescript/optable.go:"; \
		echo "$$matches"; \
		exit 1; \
	fi

# Op row loops run serially in the caller's goroutine, over the live
# column, through its ordinary setters. Parallelism lives only in the ml
# ensembles and inference, the profiler, CSV ingest and bench cells, so
# op bodies must not fan out: fail on raw pool fan-outs or goroutines in
# op-body/serving sources. Op bodies must also not loop over raw slab
# views (NumsView/StrsView): NumsView hands out live storage, and a
# write through it would bypass the setters' copy-on-write promotion and
# summary invalidation.
lint-opbody:
	@matches=$$(grep -nE 'pool\.(Map|Each)\(|go func' internal/pipescript/ops.go internal/pipescript/ops_extra.go internal/pipescript/exec.go internal/pipescript/transform.go); \
	if [ -n "$$matches" ]; then \
		echo "lint-opbody: raw parallelism in op bodies (op row loops run serially):"; \
		echo "$$matches"; \
		exit 1; \
	fi
	@matches=$$(grep -nE '\.(NumsView|StrsView)\(' internal/pipescript/ops.go internal/pipescript/ops_extra.go internal/pipescript/transform.go); \
	if [ -n "$$matches" ]; then \
		echo "lint-opbody: raw slab access in op bodies (use the column accessors and setters):"; \
		echo "$$matches"; \
		exit 1; \
	fi

# The live ops plane is the repo's single HTTP surface: every handler is
# registered on internal/obs/opsserver's private mux, so its read-only
# guarantee (and the bit-identity contract behind it) is auditable in
# one file. Fail on handler registration, mux construction, or server
# listening anywhere else — other packages embed the plane via
# opsserver.Start, they never grow endpoints of their own.
lint-http:
	@matches=$$(grep -rnE 'http\.(Handle|HandleFunc)\(|http\.NewServeMux\(|http\.ListenAndServe\(|pprof\.(Index|Cmdline|Profile|Symbol|Trace)|"net/http/pprof"' --include='*.go' . | grep -v '^\./internal/obs/opsserver/'); \
	if [ -n "$$matches" ]; then \
		echo "lint-http: HTTP handler registration outside internal/obs/opsserver:"; \
		echo "$$matches"; \
		exit 1; \
	fi

# GOMAXPROCS is the one concurrency control: internal/pool reads it at
# every fan-out, and every fan-out is pinned bit-identical at any width,
# so no layer re-declares a worker count, shard size or chunk size.
# Fail on a Workers/ShardRows/ChunkBytes struct field or a
# -workers/-shard-rows/-ingest-workers/-chunk-bytes flag in non-test Go
# (tests sweep these through in-package seams). Column statistics have
# one exact path, so a -summary-backend flag fails here too.
lint-knobs:
	@matches=$$(grep -rnE '^[[:space:]]*(Exec)?(Workers|ShardRows|ChunkBytes)[[:space:],]' --include='*.go' --exclude='*_test.go' .); \
	if [ -n "$$matches" ]; then \
		echo "lint-knobs: wall-time knob field (size fan-outs from GOMAXPROCS in internal/pool):"; \
		echo "$$matches"; \
		exit 1; \
	fi
	@matches=$$(grep -rnE '"-{0,2}(workers|shard-rows|ingest-workers|chunk-bytes|summary-backend)"' --include='*.go' --exclude='*_test.go' .); \
	if [ -n "$$matches" ]; then \
		echo "lint-knobs: knob flag (GOMAXPROCS is the one concurrency control; statistics have one path):"; \
		echo "$$matches"; \
		exit 1; \
	fi

# Every Go file is gofmt-clean: fail when gofmt would rewrite any file.
lint-fmt:
	@matches=$$(gofmt -l .); \
	if [ -n "$$matches" ]; then \
		echo "lint-fmt: files not gofmt-clean (run gofmt -w):"; \
		echo "$$matches"; \
		exit 1; \
	fi

# Fitted-pipeline artifacts and CSV data are untrusted input: fuzz
# LoadFittedPipeline followed by Predict, and ReadCSV against the legacy
# reader, each for a short fixed time on top of its seed corpus (plain go
# test runs the seeds alone). A crasher lands in the package's
# testdata/fuzz/ and is committed as a regression seed. Minimizing a new
# interesting input may otherwise take the whole budget, so it is capped.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzLoadFittedPipeline$$' -fuzztime=10s ./internal/pipescript/
	$(GO) test -run='^$$' -fuzz='^FuzzReadCSV$$' -fuzztime=10s -fuzzminimizetime=2s ./internal/data/

verify: build vet lint-fmt lint-encapsulation lint-obs lint-transform lint-optable lint-opbody lint-http lint-knobs test race fuzz

# Profiling + ML benchmarks: one cold iteration per benchmark (matching
# how the committed baselines were captured) merged into BENCH_*.json;
# the pre-optimization baseline blocks in those files are preserved.
#
# Two-pass lanes select their pre-optimization baseline pass with
# BENCH_BASELINE=<lane> (lanes: data, ingest — see
# internal/bench/baseline).
bench:
	$(GO) test -run='^$$' -bench=Profile -benchmem -benchtime=1x ./internal/profile/ | $(GO) run ./cmd/benchjson -o BENCH_profile.json
	$(GO) test -run='^$$' -bench=ML -benchmem -benchtime=1x -timeout=30m ./internal/ml/ | $(GO) run ./cmd/benchjson -o BENCH_ml.json
	BENCH_BASELINE=data $(GO) test -run='^$$' -bench=Data -benchmem -benchtime=10x ./internal/data/ | $(GO) run ./cmd/benchjson -set-baseline -o BENCH_data.json
	$(GO) test -run='^$$' -bench=Data -benchmem -benchtime=10x ./internal/data/ | $(GO) run ./cmd/benchjson -o BENCH_data.json
	$(GO) test -run='^$$' -bench=Obs -benchmem -benchtime=50x ./internal/bench/ | $(GO) run ./cmd/benchjson -o BENCH_obs.json
	$(GO) test -run='^$$' -bench=Predict -benchtime=300x ./internal/pipescript/ | $(GO) run ./cmd/benchjson -o BENCH_predict.json
	BENCH_BASELINE=ingest $(GO) test -run='^$$' -bench=Ingest -benchmem -benchtime=1x -timeout=30m ./internal/data/ | $(GO) run ./cmd/benchjson -set-baseline -o BENCH_ingest.json
	$(GO) test -run='^$$' -bench=Ingest -benchmem -benchtime=1x -timeout=30m ./internal/data/ | $(GO) run ./cmd/benchjson -o BENCH_ingest.json
