#!/usr/bin/env bash
# Offline CI gate: formatting, lints, tier-1 build + tests, the meda-check
# replay corpus, the supervised-run smoke against its recorded output, the
# concurrent-fleet smoke, the synthesis-service smoke,
# the end-to-end benchmark smoke with its exact-counter check against the
# committed ledger, and (unless --quick) the full-mode paper-scale
# synthesis bench, the full-mode hard-chaos degradation matrix, the
# full-mode concurrent-makespan bench, the full-mode serve-latency bench,
# the profile smoke, and the benchmark-regression gate.
# Everything runs without network access (the workspace has zero
# third-party dependencies — see DESIGN.md §6).
#
# Usage: scripts/ci.sh [--quick]
#   --quick   skip the release bench/chaos/profile stages and the bench
#             regression gate (the slow stages) — for fast local loops.
#
# Each stage is a named function run through `stage <name> <fn>`; a trap
# prints the per-stage wall-time summary on exit, pass or fail.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TERM_COLOR="${CARGO_TERM_COLOR:-always}"

QUICK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    *) echo "ci.sh: unknown argument '$arg' (supported: --quick)" >&2; exit 2 ;;
  esac
done

STAGE_NAMES=()
STAGE_TIMES=()
CURRENT_STAGE=""

summary() {
  local status=$?
  echo
  echo "==> ci.sh stage summary"
  local i
  for ((i = 0; i < ${#STAGE_NAMES[@]}; i++)); do
    printf '    %-24s %4ss\n' "${STAGE_NAMES[$i]}" "${STAGE_TIMES[$i]}"
  done
  if [ "$status" -ne 0 ] && [ -n "$CURRENT_STAGE" ]; then
    printf '    %-24s FAILED\n' "$CURRENT_STAGE"
    echo "ci.sh: FAILED in stage '$CURRENT_STAGE' (exit $status)"
  elif [ "$status" -eq 0 ]; then
    echo "ci.sh: all checks passed"
  fi
}
trap summary EXIT

stage() {
  local name=$1
  shift
  CURRENT_STAGE=$name
  echo
  echo "==> $name"
  local start=$SECONDS
  "$@"
  STAGE_NAMES+=("$name")
  STAGE_TIMES+=("$((SECONDS - start))")
  CURRENT_STAGE=""
}

fmt()           { cargo fmt --all -- --check; }
clippy()        { cargo clippy --workspace --all-targets -- -D warnings; }
build_release() { cargo build --workspace --release; }
# Early, cheap, and high-signal: every previously-shrunk counterexample in
# crates/check/tests/corpus/ must still pass before the random suites run.
replay_corpus() { cargo run --release -- check --replay-only; }
tests()         { cargo test --workspace --quiet; }
lint()          { cargo run --release -p meda-lint; }
audit_smoke()   { cargo run --release -- audit covid-rat; }
# Sound certification pass: certified [lo, hi] interval-iteration bounds
# over the MEC quotient plus an exact induced-chain strategy evaluation
# for every routed job (DESIGN.md §14).
audit_sound()   { cargo run --release -- audit covid-rat --sound; }
# Negative self-test: the packaged end-component trap is an exact fixed
# point of the plain Pmax operator, so the residual certificate MUST
# accept it (exit 0) while the sound pass MUST reject it (exit nonzero).
# Either outcome flipping means a certification gate is broken.
audit_sound_selftest() {
  cargo run --release -- audit selftest-unsound
  if cargo run --release -- audit selftest-unsound --sound; then
    echo "audit-sound-selftest: the sound pass accepted the end-component trap — the bounds gate is broken" >&2
    return 1
  fi
  echo "audit-sound-selftest: sound pass rejected the trap the residual certificate accepts, as it must"
}
# Default smoke budget is small; set MEDA_CHECK_CASES for an extended run.
check_smoke()   { cargo run --release -- check --smoke; }
# Supervised-run smoke: a deterministic defect-front chaos run of
# COVID-PCR, plain and under the failure ladder with the reconfiguration
# rung, must print exactly the recorded output (run 2 of the supervised
# pass fires every rung: resense/resynth/detour/reconfig/abort).
supervise_smoke() {
  local out=target/supervise_smoke.out
  {
    cargo run --release --quiet -- run covid-pcr --chaos=front --severity 0.5 --runs 2
    cargo run --release --quiet -- run covid-pcr --chaos=front --severity 0.5 --runs 2 \
      --supervised --reconfig
  } > "$out"
  cmp "$out" scripts/supervise_smoke.expected \
    || { echo "supervise-smoke: output differs from scripts/supervise_smoke.expected" >&2; return 1; }
}
# End-to-end concurrent-fleet smoke: N=4 must complete master-mix no slower
# than serial with a clean fluidic-separation audit (exits nonzero either way).
fleet_smoke()   { cargo run --release -- fleet --smoke; }
# End-to-end synthesis-service smoke over the committed request fixture
# (repeated + translated jobs): the batch must produce at least one
# canonical cache hit, two runs over the same persistent cache must be
# byte-identical on stdout, and after corrupting a cached entry the store
# audit (`meda serve --check-cache`) must exit nonzero. A stdin session fed
# a request, a non-UTF-8 line, a line over the 2,162,688-byte request
# limit and the request again must answer all four lines: the two bad ones
# with `"status":"error"`, the two good ones byte-identical to the batch.
# The same four lines as a `--batch` file must get the same four replies.
serve_smoke() {
  local dir=target/ci-serve-cache
  rm -rf "$dir"
  cargo run --release -- serve --batch scripts/serve_smoke_requests.jsonl \
    --cache-dir "$dir" --min-hits 1 > target/serve_smoke_run1.out
  cargo run --release -- serve --batch scripts/serve_smoke_requests.jsonl \
    --cache-dir "$dir" --min-hits 1 > target/serve_smoke_run2.out
  cmp target/serve_smoke_run1.out target/serve_smoke_run2.out \
    || { echo "serve-smoke: warm rerun is not byte-identical to the cold run" >&2; return 1; }
  local req expected stream_dir=target/ci-serve-stream-cache
  rm -rf "$stream_dir"
  req=$(head -n 1 scripts/serve_smoke_requests.jsonl)
  expected=$(head -n 1 target/serve_smoke_run1.out)
  local hostile=target/serve_smoke_hostile.jsonl
  {
    printf '%s\n' "$req"
    printf '\xff\xfe\n'
    head -c 3000000 /dev/zero | tr '\0' x
    printf '\n%s\n' "$req"
  } > "$hostile"
  cargo run --release -- serve --cache-dir "$stream_dir" < "$hostile" > target/serve_smoke_stream.out
  [ "$(wc -l < target/serve_smoke_stream.out)" -eq 4 ] \
    || { echo "serve-smoke: hostile stream did not get exactly four replies" >&2; return 1; }
  [ "$(sed -n 1p target/serve_smoke_stream.out)" = "$expected" ] \
    && [ "$(sed -n 4p target/serve_smoke_stream.out)" = "$expected" ] \
    || { echo "serve-smoke: stream replies differ from the batch reply" >&2; return 1; }
  [ "$(sed -n 2,3p target/serve_smoke_stream.out | grep -c '"status":"error"')" -eq 2 ] \
    || { echo "serve-smoke: a hostile line did not get an error reply" >&2; return 1; }
  cargo run --release -- serve --batch "$hostile" --cache-dir "$stream_dir" \
    > target/serve_smoke_hostile_batch.out
  cmp target/serve_smoke_stream.out target/serve_smoke_hostile_batch.out \
    || { echo "serve-smoke: a hostile batch file is not answered like the stream" >&2; return 1; }
  local entry
  entry=$(ls "$dir"/*.json | head -n 1)
  sed -i 's/"values":\["/"values":["f/' "$entry"
  if cargo run --release -- serve --check-cache --cache-dir "$dir"; then
    echo "serve-smoke: --check-cache accepted a corrupted entry — the load audit is broken" >&2
    return 1
  fi
  echo "serve-smoke: cache hits, byte-identical reruns, hostile stream and batch lines, and corruption detection all hold"
}
# Full (non-smoke) mode: the paper-scale Table V matrix up to 90×90. The
# committed BENCH_synthesis.json baseline is full-mode, and bench_compare
# only gates timings when modes match — a smoke run here would downgrade
# every paper-scale regression to a warning.
bench_full()    { cargo run --release -p meda-bench --bin bench_synthesis; }
# Full mode runs all four fault classes and self-checks the blessed
# degradation-curve claims (monotone curves, reconfig dominance on the
# electrode-killing classes) — it exits nonzero on a shape violation even
# before bench_compare diffs the committed baseline.
chaos_full()    { cargo run --release -p meda-bench --bin ext_chaos; }
# Full mode runs CEP, COVID-PCR, and the multiplex assay at N ∈ {1,2,4,8}
# and self-checks that every N ≥ 2 strictly beats the serial makespan —
# it exits nonzero on a throughput regression even before bench_compare
# diffs the committed baseline.
makespan_full() { cargo run --release -p meda-bench --bin bench_makespan; }
# Full mode runs the three-assay translated-geometry mix and self-checks
# the headline claims (every warm request hits the canonical cache, warm
# hits are >= 10x faster than cold synthesis) — it exits nonzero on a
# cache regression even before bench_compare diffs the committed baseline.
serve_full()    { cargo run --release -p meda-bench --bin bench_serve; }
profile_smoke() { cargo run --release -- profile covid-rat; }
# Diff the fresh target/bench/ runs against the committed baselines;
# >25% timing regressions in smoke mode fail (see EXPERIMENTS.md to re-bless).
bench_gate()    { cargo run --release -p meda-bench --bin bench_compare -- synthesis chaos makespan serve; }
# Negative self-tests: against each impossible fixture baseline the gate
# MUST fire; if bench_compare exits 0 the gate is broken and CI says so.
#   synthesis — 1 ns timings trip the timing gate;
#   chaos     — absurd reconfig dominance margins trip the dominance-collapse
#               check of any real full-mode chaos run;
#   makespan  — absurd serial-vs-concurrent dominance margins trip the
#               dominance-collapse check of any real full-mode makespan run;
#   serve     — 1 ns latencies, a 1e9x warm-hit speedup and a 0.0 hit rate
#               trip the timing and speedup gates of any real bench_serve run.
# Columns: stage name | bench | fixture | the gate a pass would prove broken.
GATE_SELFTESTS=(
  "gate-selftest|synthesis|scripts/bench_regression_fixture.json|the gate"
  "chaos-gate-selftest|chaos|scripts/chaos_regression_fixture.json|the dominance gate"
  "makespan-gate-selftest|makespan|scripts/makespan_regression_fixture.json|the concurrent-makespan gate"
  "serve-gate-selftest|serve|scripts/serve_regression_fixture.json|the serve gate"
)
gate_selftest() {
  local name=$1 bench=$2 fixture=$3 gate=$4
  if cargo run --release -p meda-bench --bin bench_compare -- "$bench" --baseline "$fixture"; then
    echo "$name: bench_compare passed against the impossible fixture — $gate is broken" >&2
    return 1
  fi
  echo "$name: gate fired against the fixture baseline, as it must"
}
# End-to-end benchmark smoke: every workload runs briefly, then
# --verify-counts reruns them at the ledger's size and compares every
# exact counter and outcome digest with the committed ledger.json, so a
# "performance" change that alters behaviour fails here.
bench_e2e_smoke() {
  cargo run --release -p meda-bench --bin bench_e2e -- --workload all --smoke
  cargo run --release -p meda-bench --bin bench_e2e -- --verify-counts
}

stage "fmt"            fmt
stage "clippy"         clippy
stage "build-release"  build_release
stage "replay-corpus"  replay_corpus
stage "test"           tests
stage "lint"           lint
stage "audit-smoke"    audit_smoke
stage "audit-sound"    audit_sound
stage "audit-sound-selftest" audit_sound_selftest
stage "check-smoke"    check_smoke
stage "supervise-smoke" supervise_smoke
stage "fleet-smoke"    fleet_smoke
stage "serve-smoke"    serve_smoke
stage "bench-e2e-smoke" bench_e2e_smoke
if [ "$QUICK" -eq 0 ]; then
  stage "bench-full"              bench_full
  stage "chaos-full"              chaos_full
  stage "makespan-full"           makespan_full
  stage "serve-full"              serve_full
  stage "profile-smoke"           profile_smoke
  stage "bench-gate"              bench_gate
  for row in "${GATE_SELFTESTS[@]}"; do
    IFS='|' read -r name bench fixture gate <<< "$row"
    stage "$name" gate_selftest "$name" "$bench" "$fixture" "$gate"
  done
else
  echo
  echo "==> --quick: skipping bench-full, chaos-full, makespan-full, serve-full, profile-smoke, bench-gate, gate-selftest, chaos-gate-selftest, makespan-gate-selftest, serve-gate-selftest"
fi
