# Development targets for the CatDB reproduction.

GO ?= go

.PHONY: build vet test race verify bench lint-encapsulation lint-obs lint-transform lint-dag lint-shard lint-http

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

# Op metadata (arity, column footprint, shard class, handlers) lives in
# one registry (pipescript/optable.go) consumed by the parser, executor,
# and analyzer. Fail on any op dispatch switch in the executor sources
# or any knownOps registration outside the registry.
lint-dag:
	@matches=$$(grep -nE 'switch (st|stmt)\.Op' internal/pipescript/exec.go internal/pipescript/ops_extra.go); \
	if [ -n "$$matches" ]; then \
		echo "lint-dag: op dispatch switch outside the op registry (use registerOp):"; \
		echo "$$matches"; \
		exit 1; \
	fi
	@matches=$$(grep -rnE 'knownOps\[[^]]*\] *=|registerOp\(' --include='*.go' internal/pipescript/ | grep -v 'optable.go'); \
	if [ -n "$$matches" ]; then \
		echo "lint-dag: op registration outside internal/pipescript/optable.go:"; \
		echo "$$matches"; \
		exit 1; \
	fi

# Elementwise op bodies parallelize only through the row sharder
# (pipescript/sharder.go): its disjoint-write contract and its fan-out
# width (the executor's Workers) are what keep results bit-identical and
# the pool bounded. Fail on raw pool fan-outs or goroutines in
# op-body/serving sources, and on raw slab views (NumsView/StrsView) in
# op bodies — a raw slab loop would bypass the ShardView write path.
lint-shard:
	@matches=$$(grep -nE 'pool\.(Map|Each)\(|go func' internal/pipescript/ops.go internal/pipescript/ops_extra.go internal/pipescript/exec.go internal/pipescript/transform.go); \
	if [ -n "$$matches" ]; then \
		echo "lint-shard: raw parallelism in op bodies (route row loops through the sharder):"; \
		echo "$$matches"; \
		exit 1; \
	fi
	@matches=$$(grep -nE '\.(NumsView|StrsView)\(' internal/pipescript/ops.go internal/pipescript/ops_extra.go internal/pipescript/transform.go); \
	if [ -n "$$matches" ]; then \
		echo "lint-shard: raw slab access in elementwise op bodies (use column accessors through shard views):"; \
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

verify: build vet lint-encapsulation lint-obs lint-transform lint-dag lint-shard lint-http test race

# Profiling + ML benchmarks: one cold iteration per benchmark (matching
# how the committed baselines were captured) merged into BENCH_*.json;
# the pre-optimization baseline blocks in those files are preserved.
#
# Two-pass lanes select their pre-optimization baseline pass with
# BENCH_BASELINE=<lane> (lanes: data, ingest, shard — see
# internal/bench/baseline; the historical BENCH_DATA_MODE=deep,
# BENCH_INGEST_MODE=legacy, and BENCH_SHARD_MODE=serial variables remain
# supported aliases).
bench:
	$(GO) test -run='^$$' -bench=Profile -benchmem -benchtime=1x ./internal/profile/ | $(GO) run ./cmd/benchjson -o BENCH_profile.json
	$(GO) test -run='^$$' -bench=ML -benchmem -benchtime=1x -timeout=30m ./internal/ml/ | $(GO) run ./cmd/benchjson -o BENCH_ml.json
	BENCH_BASELINE=data $(GO) test -run='^$$' -bench=Data -benchmem -benchtime=10x ./internal/data/ | $(GO) run ./cmd/benchjson -set-baseline -o BENCH_data.json
	$(GO) test -run='^$$' -bench=Data -benchmem -benchtime=10x ./internal/data/ | $(GO) run ./cmd/benchjson -o BENCH_data.json
	$(GO) test -run='^$$' -bench=Obs -benchmem -benchtime=50x ./internal/bench/ | $(GO) run ./cmd/benchjson -o BENCH_obs.json
	$(GO) test -run='^$$' -bench=Predict -benchtime=300x ./internal/pipescript/ | $(GO) run ./cmd/benchjson -o BENCH_predict.json
	BENCH_BASELINE=ingest $(GO) test -run='^$$' -bench=Ingest -benchmem -benchtime=1x -timeout=30m ./internal/data/ | $(GO) run ./cmd/benchjson -set-baseline -o BENCH_ingest.json
	$(GO) test -run='^$$' -bench=Ingest -benchmem -benchtime=1x -timeout=30m ./internal/data/ | $(GO) run ./cmd/benchjson -o BENCH_ingest.json
	BENCH_BASELINE=shard $(GO) test -run='^$$' -bench=Shard -benchmem -benchtime=3x -timeout=30m ./internal/pipescript/ | $(GO) run ./cmd/benchjson -set-baseline -o BENCH_shard.json
	$(GO) test -run='^$$' -bench=Shard -benchmem -benchtime=3x -timeout=30m ./internal/pipescript/ | $(GO) run ./cmd/benchjson -o BENCH_shard.json
