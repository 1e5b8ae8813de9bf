#!/usr/bin/env bash
# End-to-end smoke test of the pgserve monitoring surface, driven through
# the public binaries: start a daemon with a metrics listener (ephemeral
# TCP port) and a structured access log, put real traffic through it,
# then assert:
#   - GET /metrics answers Prometheus text format that validates
#     (compare.exe --prom, plus promtool check metrics when installed);
#   - pgclient metrics --prom renders the same exposition client-side;
#   - anything else on the metrics listener gets a 404;
#   - a matrix edit over the wire refactors in place, and the scrape
#     counts it under pgserve_rung_local_total;
#   - the access log is valid JSONL with one line per request, required
#     fields present, and globally unique request ids
#     (compare.exe --access-log);
#   - pgtop renders a dashboard frame from the v2 health report.
# Run via `make monitor-smoke`; CI runs the same target.
set -u

PGSERVE="${PGSERVE:-_build/default/bin/pgserve.exe}"
PGCLIENT="${PGCLIENT:-_build/default/bin/pgclient.exe}"
PGTOP="${PGTOP:-_build/default/bin/pgtop.exe}"
COMPARE="${COMPARE:-_build/default/bench/compare.exe}"
SOCK="${MONITOR_SMOKE_SOCK:-${TMPDIR:-/tmp}/pgserve-monitor-$$.sock}"
ADDR="unix:$SOCK"
LOG="${TMPDIR:-/tmp}/pgserve-monitor-$$.log"
ACCESS_LOG="${TMPDIR:-/tmp}/pgserve-monitor-access-$$.jsonl"
SCRAPE="${TMPDIR:-/tmp}/pgserve-monitor-scrape-$$.prom"

fail=0
note() { printf '%s\n' "$*"; }

# check DESCRIPTION EXPECTED_EXIT -- cmd args...
check() {
  desc="$1" expected="$2"
  shift 3
  "$@" >/dev/null 2>&1
  actual=$?
  if [ "$actual" -eq "$expected" ]; then
    note "ok: $desc (exit $actual)"
  else
    note "FAIL: $desc: exit $actual, wanted $expected"
    fail=1
  fi
}

# check_cached DESCRIPTION -- cmd args...: like check with exit 0, and the
# answer must also come from a cached factorization
check_cached() {
  desc="$1"
  shift 2
  out=$("$@" 2>&1)
  actual=$?
  if [ "$actual" -eq 0 ] && printf '%s\n' "$out" | grep -q ", cached factorization"; then
    note "ok: $desc (exit 0, cached factorization)"
  else
    note "FAIL: $desc: exit $actual, wanted 0 and a cached factorization: $out"
    fail=1
  fi
}

cleanup() {
  [ -n "${SERVE_PID:-}" ] && kill "$SERVE_PID" 2>/dev/null
  rm -f "$SOCK" "$ACCESS_LOG" "$ACCESS_LOG.1" "$SCRAPE"
}
trap cleanup EXIT

"$PGSERVE" --listen "$ADDR" --metrics tcp:127.0.0.1:0 \
  --access-log "$ACCESS_LOG" --allow-shutdown --io-timeout 2 \
  --idle-timeout 10 >"$LOG" 2>&1 &
SERVE_PID=$!

# wait (bounded) for the daemon to bind both listeners
for _ in $(seq 1 50); do
  [ -S "$SOCK" ] && grep -q "metrics on tcp:" "$LOG" && break
  sleep 0.1
done
if [ ! -S "$SOCK" ]; then
  note "FAIL: daemon never bound $SOCK"
  cat "$LOG"
  exit 1
fi
METRICS_PORT=$(sed -n 's/^pgserve: metrics on tcp:127\.0\.0\.1:\([0-9]*\)$/\1/p' "$LOG")
if [ -z "$METRICS_PORT" ]; then
  note "FAIL: daemon never announced its metrics port"
  cat "$LOG"
  exit 1
fi
note "ok: metrics listener on port $METRICS_PORT"

# real traffic: solves (cached + robust), a load and a matrix update,
# typed failures
check "solve pg01" 0 -- "$PGCLIENT" solve --case pg01 --scale 0.05 -c "$ADDR"
check_cached "solve again (cached)" -- \
  "$PGCLIENT" solve --case pg01 --scale 0.05 -c "$ADDR"
check "robust solve" 0 -- \
  "$PGCLIENT" solve --case pg01 --scale 0.05 --robust -c "$ADDR"
check "eco update" 0 -- \
  "$PGCLIENT" update --case pg01 --scale 0.05 --edit set-load:3:0.02 -c "$ADDR"
check "eco matrix edit" 0 -- \
  "$PGCLIENT" update --case pg01 --scale 0.05 \
  --edit scale-conductance:3:4:2.0 -c "$ADDR"
check "unknown case -> typed failure" 1 -- \
  "$PGCLIENT" solve --case pg99 -c "$ADDR"
check "expired deadline -> timed out" 4 -- \
  "$PGCLIENT" solve --case pg01 --scale 0.05 --deadline-ms 0 -c "$ADDR"

# scrape /metrics over plain HTTP (curl when present, bash /dev/tcp as
# the fallback so the smoke runs on minimal images)
scrape() {
  if command -v curl >/dev/null 2>&1; then
    curl -sf "http://127.0.0.1:$METRICS_PORT/metrics"
  else
    exec 3<>"/dev/tcp/127.0.0.1/$METRICS_PORT" || return 1
    printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
    sed '1,/^\r*$/d' <&3
    exec 3<&- 3>&-
  fi
}
if scrape >"$SCRAPE" && [ -s "$SCRAPE" ]; then
  note "ok: scraped /metrics ($(wc -l <"$SCRAPE") lines)"
else
  note "FAIL: could not scrape /metrics on port $METRICS_PORT"
  fail=1
fi

# the scrape must be well-formed Prometheus text format
check "prom validator accepts the scrape" 0 -- "$COMPARE" --prom "$SCRAPE"
if command -v promtool >/dev/null 2>&1; then
  check "promtool accepts the scrape" 0 -- \
    promtool check metrics <"$SCRAPE"
else
  note "note: promtool not installed; bundled validator only"
fi

# the exposition must carry the core families
for family in pgserve_requests_total pgserve_request_latency_seconds_bucket \
  pgserve_req_per_second_1m; do
  if grep -q "^$family" "$SCRAPE"; then
    note "ok: scrape carries $family"
  else
    note "FAIL: scrape lacks $family"
    fail=1
  fi
done

# the matrix edit took the local rung: one in-place refactor, no re-prepare
local_updates=$(sed -n 's/^pgserve_rung_local_total \([0-9.]*\)$/\1/p' "$SCRAPE")
if [ "$local_updates" = "1" ]; then
  note "ok: scrape counts the matrix edit under pgserve_rung_local_total"
else
  note "FAIL: pgserve_rung_local_total is '$local_updates', wanted 1"
  fail=1
fi

# anything but /metrics is a 404
if command -v curl >/dev/null 2>&1; then
  code=$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$METRICS_PORT/other")
  if [ "$code" = "404" ]; then
    note "ok: GET /other -> 404"
  else
    note "FAIL: GET /other -> $code, wanted 404"
    fail=1
  fi
fi

# client-side rendering of the same exposition
check "pgclient metrics --prom" 0 -- "$PGCLIENT" metrics --prom -c "$ADDR"

# one pgtop frame parses and renders the v2 report
check "pgtop one frame" 0 -- "$PGTOP" -c "$ADDR" --iterations 1

# structured access log: valid JSONL, required fields, unique ids
check "access-log validator" 0 -- "$COMPARE" --access-log "$ACCESS_LOG"
solves=$(grep -c '"op":"solve"' "$ACCESS_LOG")
if [ "$solves" -ge 5 ]; then
  note "ok: access log recorded $solves solve requests"
else
  note "FAIL: access log recorded $solves solve requests, wanted >= 5"
  fail=1
fi

# graceful drain
check "shutdown" 0 -- "$PGCLIENT" shutdown -c "$ADDR"
for _ in $(seq 1 100); do
  kill -0 "$SERVE_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
  note "FAIL: daemon still running after shutdown"
  fail=1
fi
SERVE_PID=""

if [ "$fail" -eq 0 ]; then
  note "monitor smoke OK"
else
  note "monitor smoke FAILED"
fi
exit "$fail"
