#!/usr/bin/env bash
# positd-smoke.sh — shared harness for the positd CI smoke scenarios.
#
# Usage: scripts/positd-smoke.sh <basic|jobs-crash|diagnose> [port]
#
# Builds positd (unless POSITD_BIN points at an existing binary),
# starts it, waits for /healthz, runs the named scenario against a real
# TCP socket, and always tears the daemon down via an EXIT trap — a
# failing curl can no longer leak a daemon into the next CI step.
#
# Scenarios:
#   basic       health, convert, and metrics endpoints; graceful drain
#               (SIGTERM must exit 0).
#   jobs-crash  submit a checkpointing solve job against a journaled
#               store, SIGKILL the daemon mid-run, restart it on the
#               same journal, and poll the same job id to successful
#               completion. (Bit-identity of the resumed result is
#               asserted by the Go test TestCrashRecoveryBitIdentical;
#               this proves the shipped binary wires the same path.)
#   diagnose    fully-sampled shadowed CG solve through /v1/diagnose:
#               the report must carry solver progress, the accuracy
#               envelope, and non-empty per-op error histograms, and
#               the run must land in the shadow gauges of
#               /debug/metrics. That body and a float16 Cholesky upload
#               whose solution overflows the format are also POSTed to
#               /v1/solve: each diagnosis must report the iterations,
#               converged and failed of its solve.
set -euo pipefail

SCENARIO=${1:?usage: positd-smoke.sh <basic|jobs-crash|diagnose> [port]}
PORT=${2:-8787}
ADDR=127.0.0.1:$PORT
BIN=${POSITD_BIN:-/tmp/positd}
PID=""

cleanup() {
  if [ -n "$PID" ] && kill -0 "$PID" 2>/dev/null; then
    kill -KILL "$PID" 2>/dev/null || true
    wait "$PID" 2>/dev/null || true
  fi
}
trap cleanup EXIT

wait_healthz() {
  for _ in $(seq 1 50); do
    if curl -sf "$ADDR/healthz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "positd-smoke: $ADDR/healthz never came up" >&2
  return 1
}

start_positd() { # start_positd <extra args...>
  "$BIN" -addr "$ADDR" "$@" &
  PID=$!
  wait_healthz
}

stop_graceful() { # the graceful-drain contract: SIGTERM must exit 0
  kill -TERM "$PID"
  wait "$PID"
  PID=""
}

kill_hard() { # simulated process death, journal left as-is
  kill -KILL "$PID"
  wait "$PID" || true
  PID=""
}

scenario_basic() {
  start_positd
  curl -sf "$ADDR/healthz"
  curl -sf -X POST "$ADDR/v1/convert" \
    -d '{"from":"float64","to":"posit32es2","values":[1,2.5,3.14159]}'
  curl -sf "$ADDR/debug/metrics" >/dev/null
  stop_graceful
}

scenario_jobs_crash() {
  JDIR=$(mktemp -d)
  start_positd -jobs-dir "$JDIR" -quiet
  MM='%%MatrixMarket matrix coordinate real symmetric\n3 3 5\n1 1 2\n2 2 2\n3 3 2\n2 1 -1\n3 2 -1\n'
  ID=$(curl -sf -X POST "$ADDR/v1/jobs" \
    -d "{\"solve\":{\"matrix_market\":\"$MM\",\"solver\":\"cg\",\"format\":\"posit32es2\",\"tol\":1e-300,\"max_iter\":2000},\"checkpoint_every\":5}" |
    sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
  test -n "$ID"
  # Let at least one checkpoint land, then kill without mercy.
  for _ in $(seq 1 100); do
    CK=$(curl -sf "$ADDR/v1/jobs/$ID" | sed -n 's/.*"checkpoint_iter":\([0-9]*\).*/\1/p')
    [ "${CK:-0}" -ge 5 ] && break
    sleep 0.1
  done
  kill_hard
  start_positd -jobs-dir "$JDIR" -quiet
  STATE=""
  for _ in $(seq 1 300); do
    STATE=$(curl -sf "$ADDR/v1/jobs/$ID" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
    [ "$STATE" = succeeded ] && break
    sleep 0.1
  done
  [ "$STATE" = succeeded ]
  stop_graceful
}

# progress <json>: "iterations converged failed" of a solve response or
# a diagnosis report (both compact JSON, the three fields adjacent).
progress() {
  sed -n 's/.*"iterations":\([0-9]*\),"converged":\([a-z]*\),"failed":\([a-z]*\).*/\1 \2 \3/p' <<<"$1"
}

# same_progress <solve body> <report>: a diagnosis report must carry
# the progress /v1/solve reports for the same system and solver.
same_progress() {
  local want got
  want=$(progress "$(curl -sf -X POST "$ADDR/v1/solve" -d "$1")")
  got=$(progress "$2")
  if [ -z "$want" ] || [ "$got" != "$want" ]; then
    echo "positd-smoke: diagnose reports '$got', solve '$want' for $1" >&2
    return 1
  fi
}

scenario_diagnose() {
  start_positd -quiet
  REP=$(curl -sf -X POST "$ADDR/v1/diagnose" \
    -d '{"matrix":"bcsstk01","solver":"cg","format":"posit32es2","rescale":true,"sample_every":1}')
  echo "$REP" | grep -q '"matrix":"bcsstk01"'
  echo "$REP" | grep -q '"iterations":[1-9]'
  echo "$REP" | grep -q '"envelope":{'
  echo "$REP" | grep -q '"trace":\[{'
  echo "$REP" | grep -q '"rel_hist":\[{'
  OPS=$(echo "$REP" | sed -n 's/.*"total_ops":\([0-9]*\).*/\1/p')
  test "${OPS:-0}" -gt 0
  curl -sf "$ADDR/debug/metrics" | grep -q '"shadow":{"runs":1,"shadowed_ops":'"$OPS"
  same_progress '{"matrix":"bcsstk01","solver":"cg","format":"posit32es2","rescale":true}' "$REP"
  # float16 holds diag(0.001, 1) but not the solution's 10^6.
  OVER='{"matrix_market":"%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 0.001\n2 2 1\n","b":[1000,1],"solver":"cholesky","format":"float16"}'
  same_progress "$OVER" "$(curl -sf -X POST "$ADDR/v1/diagnose" -d "$OVER")"
  stop_graceful
}

if [ ! -x "$BIN" ]; then
  go build -o "$BIN" ./cmd/positd
fi

case "$SCENARIO" in
basic) scenario_basic ;;
jobs-crash) scenario_jobs_crash ;;
diagnose) scenario_diagnose ;;
*)
  echo "positd-smoke: unknown scenario '$SCENARIO' (want basic, jobs-crash, diagnose)" >&2
  exit 2
  ;;
esac
echo "positd-smoke: $SCENARIO ok"
