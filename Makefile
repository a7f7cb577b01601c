# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# four gates: build, test, doc, clippy.

CARGO ?= cargo

.PHONY: build test doc clippy bench-smoke bench-contract bench-pair bench bench-snapshot serve-smoke bench-http bench-build bench-cluster bench-tenancy bench-overlay bench-trace bench-history cluster-smoke report ci

# Tier-1 gate, part 1.
build:
	$(CARGO) build --release

# Tier-1 gate, part 2: unit + integration + property + doc tests.
test:
	$(CARGO) test -q

# Rustdoc with warnings promoted to errors (kept warning-free).
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --workspace --no-deps

# Lints with warnings promoted to errors, across every target.
clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# Every criterion bench body exactly once — compile + run sanity, no timing.
bench-smoke:
	$(CARGO) bench -p graphex-bench -- --test

# The repo benchmark (benchmark/) is a package outside the workspace, so
# the root build and test never compile it: this is what notices a
# refactor that breaks the public API it builds against. Contract check
# of BENCHMARK.json plus a --smoke run of all five workloads.
bench-contract:
	$(CARGO) test --release --offline --manifest-path benchmark/Cargo.toml

# A change against its parent on one workload of the repo benchmark
# (benchmark/README.md, "Comparing a change against its parent"): both
# sides built into .bench_build/, PAIRS alternating pairs on fresh seeds,
# disturbed pairs discarded, then per end-to-end metric each side's
# median and quartiles and the pairs won. TRACE_METRICS="name,name" in
# the environment adds one --trace 1 run per side and prints those
# per-layer metrics side by side.
WORKLOAD ?= router_batch
BASE ?= HEAD
PAIRS ?= 10
bench-pair:
	scripts/bench_pair.sh $(WORKLOAD) $(BASE) $(PAIRS)

# Snapshot lifecycle smoke: v1 vs v2 load + swap-under-load, one pass
# each (no timing). Real numbers land in BENCH_model_store.json.
bench-snapshot:
	$(CARGO) bench -p graphex-bench --bench snapshot_lifecycle -- --test

# Network-frontend smoke: boot `graphex serve --smoke` on an ephemeral
# port, hit all four endpoints plus malformed-request probes, shut down
# gracefully. Exits non-zero on any failed probe.
serve-smoke:
	$(CARGO) run --release -p graphex-cli --bin graphex -- serve --smoke

# HTTP frontend loadgen: replay marketsim serving traffic over loopback
# with one live hot-swap mid-run; fails on any non-200 response. Records
# the BENCH_http_frontend.json datapoint.
bench-http:
	$(CARGO) run --release -p graphex-bench --bin loadgen -- \
	  --requests 4000 --connections 4 --scale cat1 \
	  --output BENCH_http_frontend.json --date $$(date +%Y-%m-%d)

# Build pipeline: sequential vs parallel vs incremental-delta builds at
# cat1/cat2 scales, with the byte-equivalence gate built in (exit 1 if
# pipeline or delta bytes ever diverge from the sequential builder).
# Records the BENCH_build_pipeline.json datapoint.
bench-build:
	$(CARGO) run --release -p graphex-bench --bin buildbench -- \
	  --reps 5 --output BENCH_build_pipeline.json --date $$(date +%Y-%m-%d)

# Scale-out serving: loadgen through the scatter-gather router, 1 vs 3
# backends, the 3-backend arm absorbing a rolling cluster-wide hot swap
# mid-run. Gates on zero 5xx and zero degraded entries cluster-wide.
# Records the BENCH_cluster.json datapoint (1-CPU container caveat
# inside: the 3-backend arm measures coordination, not speedup).
bench-cluster:
	$(CARGO) run --release -p graphex-bench --bin clusterbench -- \
	  --requests 3000 --connections 4 \
	  --output BENCH_cluster.json --date $$(date +%Y-%m-%d)

# Multi-tenant serving: fleet cold-start latency and resident bytes at
# 1/4/16 tenants, mmap vs heap snapshot backend (cold admit, evict-all,
# page-cache-warm re-admit). Records the BENCH_tenancy.json datapoint.
bench-tenancy:
	$(CARGO) run --release -p graphex-bench --bin tenancybench -- \
	  --output BENCH_tenancy.json --date $$(date +%Y-%m-%d)

# NRT overlay serving: upsert-to-servable latency for a brand-new leaf,
# for an existing production-size leaf on first touch and with 1 / 128
# records pending, and steady-state read-path overhead at 0%/1%/10%
# overlaid-leaf depth. Records the BENCH_overlay.json datapoint.
bench-overlay:
	$(CARGO) run --release -p graphex-bench --bin overlaybench -- \
	  --output BENCH_overlay.json --date $$(date +%Y-%m-%d)

# Request tracing overhead: interleaved tracing-off / tracing-on /
# slow-log-firing arms over loopback infer traffic; fails if the traced
# arm is >5% slower than the baseline. Records the
# BENCH_trace_overhead.json datapoint.
bench-trace:
	$(CARGO) run --release -p graphex-bench --bin tracebench -- \
	  --requests 3000 --connections 4 \
	  --output BENCH_trace_overhead.json --date $$(date +%Y-%m-%d)

# Telemetry-history overhead: interleaved history-off / history-on arms
# (the on arm sampling at 20x the production rate) over loopback infer
# traffic; fails if the sampled arm is >1% slower than the baseline.
# Records the BENCH_report_history.json datapoint.
bench-history:
	$(CARGO) run --release -p graphex-bench --bin historybench -- \
	  --requests 3000 --connections 4 \
	  --output BENCH_report_history.json --date $$(date +%Y-%m-%d)

# The observability report: compile every BENCH_*.json in the repo root,
# a live history + trace capture (in-process demo server), and a judged
# eval into one self-contained report.html — no external assets, opens
# from file://.
report:
	$(CARGO) run --release -p graphex-cli --bin graphex -- report --out report.html

# Cluster smoke: build -> per-shard snapshots -> 3 backends + router,
# then the sharded≡monolith, rolling-swap zero-5xx, and health gates.
cluster-smoke:
	$(CARGO) run --release -p graphex-cli --bin graphex -- cluster smoke

# The real (wall-clock) bench suite.
bench:
	$(CARGO) bench -p graphex-bench

# Everything CI checks, in CI order.
ci: build test doc clippy
