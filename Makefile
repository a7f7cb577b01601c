# Developer entry points. `make ci` runs every step of CI
# (.github/workflows/ci.yml) in CI's order: the format check, the four
# gates — build, test, doc, clippy — then the two walkthrough examples,
# bench-smoke, bench-contract, bench-overhead and report. CI's named gates are test
# binaries `make test` runs (the table above CI's Test step says which).

CARGO ?= cargo

.PHONY: fmt-check build test doc clippy bench-smoke bench-contract bench-pair bench bench-snapshot bench-tenancy bench-overhead report ci

# The tree is kept `cargo fmt`-clean (workspace crates, tests, examples,
# vendor shims; benchmark/ is its own package).
fmt-check:
	$(CARGO) fmt --all -- --check

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

# Snapshot lifecycle smoke: zero-copy load + swap-under-load, one pass
# each (no timing). Timed end to end by the repo benchmark's
# model_refresh workload.
bench-snapshot:
	$(CARGO) bench -p graphex-bench --bench snapshot_lifecycle -- --test

# Multi-tenant serving: fleet cold-start latency and resident bytes at
# 1/4/16 tenants, mmap vs heap snapshot backend (cold admit, evict-all,
# page-cache-warm re-admit). Prints its measurements as JSON.
bench-tenancy:
	$(CARGO) run --release -p graphex-bench --bin tenancybench

# Tracing and telemetry-history overhead: five interleaved arms of
# loopback infer traffic (tracing off / on / slow-logging, history off /
# on at 20x the production sampling rate); fails if traced serving is
# >5% or sampled serving >1% slower than its untraced / unsampled arm.
bench-overhead:
	$(CARGO) run --release -p graphex-bench --bin overheadbench

# The observability report: one run document written by the repo
# benchmark itself (a --smoke edge_hot run with --trace 1, so the writer
# and graphex-report's reader meet on a real document on every run), a
# live history + trace capture (in-process demo server), and a judged
# eval, compiled into one self-contained report.html — no external
# assets, opens from file://. Point --bench-dir at .bench_build/runs to
# render a `make bench-pair` run instead.
report:
	mkdir -p target/report-bench
	$(CARGO) run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- --workload edge_hot --seed 1 --seconds 1 --trace 1 --smoke --out target/report-bench/edge_hot.json >/dev/null
	$(CARGO) run --release -p graphex-cli --bin graphex -- report --out report.html --bench-dir target/report-bench

# The real (wall-clock) bench suite.
bench:
	$(CARGO) bench -p graphex-bench

# Everything CI runs, in CI's order.
ci: fmt-check build test doc clippy
	$(CARGO) run --release -p graphex-suite --example seller_onboarding
	$(CARGO) run --release -p graphex-suite --example model_ops
	$(MAKE) bench-smoke bench-contract bench-overhead report
