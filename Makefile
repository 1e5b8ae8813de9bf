.PHONY: build check check-par check-idx64 test test-robust bench-smoke \
  bench-kernels trace-smoke serve-smoke eco-smoke monitor-smoke fmt \
  fmt-check clean

build:
	dune build

# Tier-1 verification: full build plus the complete test suite.
check:
	dune build && dune runtest

test: check

# Full suite again on a 2-domain pool, so the one parallel region
# (solve_many's batch chunks) runs — every CI build-test leg.
check-par:
	POWERRCHOL_DOMAINS=2 dune runtest --force

# Full build and suite again with the native-word index backend
# (lib/sparse/dune selects it from POWERRCHOL_IDX64) — the CI 5.1 leg.
# The next plain `dune build` recompiles the default int32 backend.
check-idx64:
	POWERRCHOL_IDX64=1 dune build @all
	POWERRCHOL_IDX64=1 dune runtest --force

# Only the robustness / fault-injection suite.
test-robust:
	dune build @runtest-robust

# Scaled-down Table 1 + batched (factor-once/solve-many) + kernels (one
# domain; gather vs scatter SpMV gated) + serve phases, then the
# regression gate against the committed baseline — the same thing the
# CI bench-smoke job runs.
# The batched phase also writes bench_artifacts/trace.json; passing it
# as the third compare argument gates its structural validity alongside
# the timing rows.
bench-smoke:
	BENCH_SCALE=0.05 BENCH_SERVE_SECONDS=2 \
	  dune exec bench/main.exe table1 batched kernels serve
	dune exec bench/compare.exe bench_artifacts/baseline.json \
	  bench_artifacts/bench.json bench_artifacts/trace.json

# ECO edit-storm smoke: drive a storm of localized grid edits through
# the versioned session layer on a reduced grid, then gate the
# amortization ratio (an incremental edit must cost at most
# BENCH_EDIT_AMORT of a from-scratch prepare+solve) and convergence of
# every re-solve. CI runs this on both toolchain legs; the full-size
# (330x330, >= 1e5 nodes) run is the default `bench/main.exe edits`.
eco-smoke:
	BENCH_EDIT_NX=120 BENCH_EDIT_NY=120 BENCH_EDIT_COUNT=24 \
	  dune exec bench/main.exe edits
	dune exec bench/compare.exe bench_artifacts/baseline.json \
	  bench_artifacts/bench.json

# End-to-end trace smoke: solve one small case under `pgsolve --trace`,
# then run the standalone trace-validity gate over the emitted file
# (balanced B/E spans, monotonic timestamps per track).
trace-smoke:
	dune exec bin/pgsolve.exe -- solve --case pg01 --scale 0.05 \
	  --trace /tmp/pgsolve-trace.json
	dune exec bench/compare.exe -- --trace /tmp/pgsolve-trace.json

# Just the hot-path kernel micro-benchmarks, all on one domain
# (DESIGN.md §10).
bench-kernels:
	dune exec bench/main.exe kernels

# End-to-end daemon smoke: start pgserve, drive it through good, bad,
# past-deadline, and wire-fault-injected requests with pgclient, then
# shut it down and assert a clean drain (DESIGN.md §12).
serve-smoke:
	dune build bin/pgserve.exe bin/pgclient.exe
	bash scripts/serve_smoke.sh

# Monitoring-surface smoke: metrics listener scrape + Prometheus text
# format validation, structured access-log JSONL/unique-id checks, and a
# pgtop dashboard frame (DESIGN.md §16).
monitor-smoke:
	dune build bin/pgserve.exe bin/pgclient.exe bin/pgtop.exe \
	  bench/compare.exe
	bash scripts/monitor_smoke.sh

fmt:
	dune fmt

# Formatting check; skips gracefully on machines without ocamlformat
# (the pinned version is in .ocamlformat; CI installs it).
fmt-check:
	@command -v ocamlformat >/dev/null 2>&1 \
	  && dune build @fmt \
	  || echo "ocamlformat not installed; skipping fmt-check"

clean:
	dune clean
