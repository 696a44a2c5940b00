#!/usr/bin/env bash
# Throughput regression gate: run bench_train_step in the recorded
# configuration and compare tokens/s against the NEWEST record in
# BENCH_train_step.json whose "host" object (cores, CPU model, ISA,
# build type) equals the fresh RESULT's exactly.  Fails when the fresh
# number falls below (1 - band) x recorded — the band absorbs
# run-to-run noise, a real regression does not hide inside it for long.
# With no same-host record it prints "no same-host baseline" and skips
# the tokens/s gate: a number from another machine is no baseline.
#
# Also gates the wire codec: an extra socket-transport leg (int8) must
# move strictly fewer wire bytes than the raw leg, each leg bitwise
# equal to its thread reference (bench_train_step exits nonzero on
# divergence).  Wire bytes are deterministic per config, so the gate
# runs a reduced workload; ZIPFLM_WIRE_GATE=0 skips it.
#
# Also smokes the serving soak: a short bench_serve_soak run with its
# latency/rejection gates on (--check).  Latency tails are noisy at
# smoke scale, so the p99 bound is looser than the acceptance run's;
# ZIPFLM_SERVE_GATE=0 skips it.
#
# Also gates observability overhead: bench_obs_overhead's estimates for
# both the disabled-instrumentation path and the enabled-with-telemetry
# path must stay under 2% of a train step; ZIPFLM_OBS_GATE=0 skips it.
#
# Also gates the row-sharded embedding memory claim: at --gpus 4 the
# per-rank shard of the frontier table must stay <= 0.30x the replicated
# table, the replicated configuration must OOM, and the sharded one must
# train (bench_mem_footprint --shard-embedding exits nonzero otherwise).
# The fresh record lands in BENCH_mem_footprint.json for artifact
# upload; ZIPFLM_MEM_GATE=0 skips it.
#
# Every gate fails LOUDLY when a RESULT line or an expected JSON key is
# missing — a renamed field must break the build, not silently pass it.
#
# Usage: scripts/bench_regression.sh [out.json]
#   out.json              fresh RESULT payload, written for artifact upload
#   ZIPFLM_BENCH_BAND     noise band as a fraction (default 0.15)
#   ZIPFLM_BENCH_ARGS     bench arguments (default: the recorded config)
#   ZIPFLM_WIRE_GATE      0 disables the codec wire-byte gate (default 1)
#   ZIPFLM_WIRE_GATE_ARGS workload for the gate legs (default "4 8 2 --gpus 4")
#   ZIPFLM_SERVE_GATE     0 disables the serve-soak smoke (default 1)
#   ZIPFLM_SERVE_GATE_ARGS soak workload (default "--shards 2 --sessions 48
#                         --requests 480 --open-seconds 0.3 --max-p99-over-p50 10")
#   ZIPFLM_OBS_GATE       0 disables the obs overhead gate (default 1)
#   ZIPFLM_MEM_GATE       0 disables the sharded-memory gate (default 1)
#   ZIPFLM_MEM_GATE_RATIO per-rank shard budget as a fraction of the
#                         replicated table (default 0.30)
set -euo pipefail
cd "$(dirname "$0")/.."

# Integer JSON field from a one-record file; a missing key is a loud
# failure (command substitution propagates the exit through set -e).
json_int() {  # file key
  local v
  v=$(grep -o "\"$2\": *[0-9]*" "$1" | head -1 | grep -o '[0-9]*$' || true)
  [[ -n "$v" ]] || { echo "missing \"$2\" in $1" >&2; return 1; }
  echo "$v"
}

out=${1:-bench_result.json}
band=${ZIPFLM_BENCH_BAND:-0.15}
args=${ZIPFLM_BENCH_ARGS:-"8 8 3 --gpus 4"}
records=BENCH_train_step.json

[[ -x build/bench/bench_train_step ]] || {
  echo "build/bench/bench_train_step not built (run cmake --build build)" >&2
  exit 2
}
[[ -f "$records" ]] || { echo "$records not found" >&2; exit 2; }

echo "running: bench_train_step $args"
# shellcheck disable=SC2086  # args is a word list on purpose
./build/bench/bench_train_step $args | tee /tmp/zipflm_bench_run.txt
grep '^RESULT' /tmp/zipflm_bench_run.txt | sed 's/^RESULT //' > "$out"
[[ -s "$out" ]] || { echo "bench produced no RESULT line" >&2; exit 2; }

# Prints "<fresh tok/s> <newest same-host tok/s, or -> <host JSON>" (the
# host last: its CPU model has spaces).  A fresh RESULT without
# tokens_per_s or host is a loud failure.
read -r fresh recorded host < <(python3 - "$out" "$records" <<'PY'
import json, sys
fresh = json.load(open(sys.argv[1]))
for key in ("tokens_per_s", "host"):
    if key not in fresh:
        sys.exit(f'missing "{key}" in {sys.argv[1]}')
host = fresh["host"]
same = [r["tokens_per_s"] for r in json.load(open(sys.argv[2]))
        if r.get("host") == host and "tokens_per_s" in r]
print(fresh["tokens_per_s"], same[-1] if same else "-",
      json.dumps(host, separators=(",", ":")))
PY
)
[[ -n "$fresh" ]] || { echo "cannot read tokens_per_s from $out" >&2; exit 2; }

if [[ "$recorded" == "-" ]]; then
  echo "no same-host baseline in $records for host $host;" \
       "skipping the tokens/s gate (fresh: $fresh tok/s)"
else
  awk -v fresh="$fresh" -v rec="$recorded" -v band="$band" 'BEGIN {
    floor = rec * (1.0 - band)
    if (fresh < floor) {
      printf "REGRESSION: %.2f tok/s < %.2f (recorded %.2f, band %.0f%%)\n",
             fresh, floor, rec, band * 100
      exit 1
    }
    printf "bench OK: %.2f tok/s >= %.2f (recorded %.2f, band %.0f%%)\n",
           fresh, floor, rec, band * 100
  }'
fi

# -- Codec wire-byte gate over the socket transport ------------------
if [[ "${ZIPFLM_WIRE_GATE:-1}" != "0" ]]; then
  gate_args=${ZIPFLM_WIRE_GATE_ARGS:-"4 8 2 --gpus 4"}
  wire_bytes_for() {  # codec name -> wire_bytes from the RESULT line
    # shellcheck disable=SC2086  # gate_args is a word list on purpose
    ./build/bench/bench_train_step $gate_args --transport socket \
      --codec "$1" > "/tmp/zipflm_wire_$1.txt" || {
        echo "socket leg --codec $1 failed (divergence or rank death)" >&2
        exit 1
      }
    grep '^RESULT' "/tmp/zipflm_wire_$1.txt" | sed 's/^RESULT //' \
      > "/tmp/zipflm_wire_$1.json"
    json_int "/tmp/zipflm_wire_$1.json" wire_bytes
  }
  echo "wire gate: bench_train_step $gate_args --transport socket"
  raw_bytes=$(wire_bytes_for raw)
  int8_bytes=$(wire_bytes_for int8)
  if (( int8_bytes >= raw_bytes )); then
    echo "WIRE REGRESSION: --codec int8 moved $int8_bytes bytes," \
         ">= raw's $raw_bytes" >&2
    exit 1
  fi
  echo "wire OK: --codec int8 moved $int8_bytes bytes < raw's $raw_bytes"
fi

# -- Serving soak smoke ----------------------------------------------
if [[ "${ZIPFLM_SERVE_GATE:-1}" != "0" ]]; then
  serve_args=${ZIPFLM_SERVE_GATE_ARGS:-"--shards 2 --sessions 48 \
    --requests 480 --open-seconds 0.3 --max-p99-over-p50 10"}
  [[ -x build/bench/bench_serve_soak ]] || {
    echo "build/bench/bench_serve_soak not built" >&2; exit 2; }
  echo "serve gate: bench_serve_soak $serve_args --check"
  # shellcheck disable=SC2086  # serve_args is a word list on purpose
  ./build/bench/bench_serve_soak $serve_args --check \
    | tee /tmp/zipflm_serve_gate.txt
  grep -q '^RESULT' /tmp/zipflm_serve_gate.txt || {
    echo "serve soak produced no RESULT line" >&2; exit 1; }
fi

# -- Observability overhead gate -------------------------------------
if [[ "${ZIPFLM_OBS_GATE:-1}" != "0" ]]; then
  [[ -x build/bench/bench_obs_overhead ]] || {
    echo "build/bench/bench_obs_overhead not built" >&2; exit 2; }
  echo "obs gate: bench_obs_overhead (both overhead estimates <= 2%)"
  ./build/bench/bench_obs_overhead | tee /tmp/zipflm_obs_gate.txt
  grep -q '^RESULT' /tmp/zipflm_obs_gate.txt || {
    echo "bench_obs_overhead produced no RESULT line" >&2; exit 1; }
  for field in est_disabled_overhead_pct est_enabled_overhead_pct; do
    # A renamed/absent field must fail the gate, not read as 0%.
    grep '^RESULT' /tmp/zipflm_obs_gate.txt | grep -q "\"$field\":" || {
      echo "missing \"$field\" in bench_obs_overhead RESULT" >&2; exit 1; }
    grep '^RESULT' /tmp/zipflm_obs_gate.txt \
      | awk -F"\"$field\":" -v field="$field" \
      '{ pct = $2 + 0
         if (pct > 2.0) { printf "OBS REGRESSION: %s %.3f%% exceeds 2%% bar\n", field, pct; exit 1 }
         printf "obs OK: %s %.3f%% within 2%% bar\n", field, pct }'
  done
fi

# -- Row-sharded embedding memory gate -------------------------------
if [[ "${ZIPFLM_MEM_GATE:-1}" != "0" ]]; then
  ratio=${ZIPFLM_MEM_GATE_RATIO:-0.30}
  [[ -x build/bench/bench_mem_footprint ]] || {
    echo "build/bench/bench_mem_footprint not built" >&2; exit 2; }
  echo "mem gate: bench_mem_footprint --shard-embedding --gpus 4" \
       "(per-rank shard <= ${ratio}x replicated table)"
  # The bench itself exits nonzero unless the replicated frontier
  # config OOMs AND the sharded one trains to completion.
  ./build/bench/bench_mem_footprint --shard-embedding --gpus 4 \
    | tee /tmp/zipflm_mem_gate.txt
  grep '^RESULT' /tmp/zipflm_mem_gate.txt | sed 's/^RESULT //' \
    > BENCH_mem_footprint.json
  [[ -s BENCH_mem_footprint.json ]] || {
    echo "bench_mem_footprint produced no RESULT line" >&2; exit 1; }
  repl_bytes=$(json_int BENCH_mem_footprint.json replicated_table_bytes)
  shard_bytes=$(json_int BENCH_mem_footprint.json sharded_table_bytes_per_rank)
  awk -v shard="$shard_bytes" -v repl="$repl_bytes" -v ratio="$ratio" 'BEGIN {
    budget = repl * ratio
    if (shard > budget) {
      printf "MEM REGRESSION: per-rank shard %d bytes > %.0f (%.2fx of the %d-byte replicated table)\n",
             shard, budget, ratio, repl
      exit 1
    }
    printf "mem OK: per-rank shard %d bytes <= %.0f (%.2fx of the %d-byte replicated table)\n",
           shard, budget, ratio, repl
  }'
fi
