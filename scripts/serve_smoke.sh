#!/usr/bin/env bash
# End-to-end smoke test of the pgserve daemon, driven entirely through the
# public binaries (no test harness): start a daemon, walk it through good,
# malformed, past-deadline, and out-of-policy requests with pgclient --
# including on-the-wire fault injection (garbage payloads, torn frames,
# hostile length headers, mid-request disconnects) -- then ask it to shut
# down and assert a clean drain. Exercises the full exit-code contract:
#   0 success, 1 typed failure, 3 typed rejection, 4 deadline expiry.
# Run via `make serve-smoke`; CI runs the same target.
set -u

PGSERVE="${PGSERVE:-_build/default/bin/pgserve.exe}"
PGCLIENT="${PGCLIENT:-_build/default/bin/pgclient.exe}"
SOCK="${SERVE_SMOKE_SOCK:-${TMPDIR:-/tmp}/pgserve-smoke-$$.sock}"
ADDR="unix:$SOCK"
LOG="${TMPDIR:-/tmp}/pgserve-smoke-$$.log"

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
  rm -f "$SOCK"
}
trap cleanup EXIT

"$PGSERVE" --listen "$ADDR" --allow-shutdown --io-timeout 2 \
  --idle-timeout 10 >"$LOG" 2>&1 &
SERVE_PID=$!

# wait (bounded) for the daemon to bind
for _ in $(seq 1 50); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
if [ ! -S "$SOCK" ]; then
  note "FAIL: daemon never bound $SOCK"
  cat "$LOG"
  exit 1
fi

# the happy path
check "ping" 0 -- "$PGCLIENT" ping -c "$ADDR"
check "solve pg01" 0 -- "$PGCLIENT" solve --case pg01 --scale 0.05 -c "$ADDR"
check_cached "solve again (cached factorization)" -- \
  "$PGCLIENT" solve --case pg01 --scale 0.05 -c "$ADDR"
check "robust solve" 0 -- \
  "$PGCLIENT" solve --case pg01 --scale 0.05 --robust -c "$ADDR"
check "diagnose" 0 -- "$PGCLIENT" diagnose --case pg01 --scale 0.05 -c "$ADDR"
check "health" 0 -- "$PGCLIENT" health -c "$ADDR"

# typed degradation: every bad input gets its contracted exit code
check "expired deadline -> timed out" 4 -- \
  "$PGCLIENT" solve --case pg01 --scale 0.05 --deadline-ms 0 -c "$ADDR"
check "unknown case -> typed failure" 1 -- \
  "$PGCLIENT" solve --case pg99 -c "$ADDR"
check "hostile scale -> typed rejection" 3 -- \
  "$PGCLIENT" solve --case pg01 --scale 1000 --retries 1 -c "$ADDR"
check "missing mtx -> typed failure" 1 -- \
  "$PGCLIENT" solve --mtx /nonexistent/nowhere.mtx -c "$ADDR"

# on-the-wire fault injection: the daemon must absorb each and stay up
for mode in garbage oversized truncate disconnect; do
  check "inject $mode" 0 -- \
    "$PGCLIENT" ping --inject "$mode" --timeout 5 -c "$ADDR"
  check "daemon alive after $mode" 0 -- "$PGCLIENT" ping -c "$ADDR"
done

# graceful drain
check "shutdown" 0 -- "$PGCLIENT" shutdown -c "$ADDR"
for _ in $(seq 1 100); do
  kill -0 "$SERVE_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
  note "FAIL: daemon still running after shutdown"
  fail=1
else
  wait "$SERVE_PID"
  code=$?
  if [ "$code" -eq 0 ] && grep -q "drained, exiting" "$LOG"; then
    note "ok: daemon drained cleanly (exit $code)"
  else
    note "FAIL: daemon exit $code; log:"
    cat "$LOG"
    fail=1
  fi
fi
SERVE_PID=""

if [ "$fail" -eq 0 ]; then
  note "serve smoke OK"
else
  note "serve smoke FAILED"
fi
exit "$fail"
