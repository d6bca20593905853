#!/usr/bin/env bash
# Offline CI gate: formatting, lints, the API docs with warnings denied
# (broken intra-doc links), tier-1 build + tests, the meda-check
# replay corpus, the supervised-run smoke against its recorded output, the
# concurrent-fleet smoke, the synthesis-service smoke,
# the end-to-end benchmark smoke with its exact-counter check against the
# committed ledger, and (unless --quick) the full-mode paper-scale
# synthesis bench, the full-mode hard-chaos degradation matrix, the
# full-mode concurrent-makespan bench, the full-mode serve-latency bench
# (each checks its own claims and fails on any drift of a deterministic
# value from its committed BENCH_*.json baseline) and the profile smoke.
# Everything runs without network access (the workspace has zero
# third-party dependencies — see DESIGN.md §6).
#
# Usage: scripts/ci.sh [--quick]
#   --quick   skip the full-mode bench bins and the profile smoke (the
#             slow stages) — for fast local loops.
#
# Each stage is a named function run through `stage <name> <fn>`. A failed
# stage is recorded and the run carries on, so one failure does not hide
# the verdict of the stages after it; a trap prints the per-stage
# wall-time summary on exit, marking every failed stage FAILED, and the
# script exits nonzero if any stage failed.
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
STAGE_FAILS=()
FAILED_STAGES=()
CURRENT_STAGE=""

summary() {
  local status=$?
  echo
  echo "==> ci.sh stage summary"
  local i
  for ((i = 0; i < ${#STAGE_NAMES[@]}; i++)); do
    printf '    %-24s %4ss%s\n' "${STAGE_NAMES[$i]}" "${STAGE_TIMES[$i]}" "${STAGE_FAILS[$i]}"
  done
  if [ -n "$CURRENT_STAGE" ]; then
    # The script itself was stopped mid-stage (a signal or an error
    # outside a stage body).
    printf '    %-24s FAILED\n' "$CURRENT_STAGE"
    FAILED_STAGES+=("$CURRENT_STAGE")
  fi
  if [ "${#FAILED_STAGES[@]}" -gt 0 ]; then
    echo "ci.sh: FAILED in stage(s): ${FAILED_STAGES[*]}"
  elif [ "$status" -eq 0 ]; then
    echo "ci.sh: all checks passed"
  else
    echo "ci.sh: FAILED (exit $status)"
  fi
}
trap summary EXIT

stage() {
  local name=$1
  shift
  CURRENT_STAGE=$name
  echo
  echo "==> $name"
  local start=$SECONDS status
  # The stage body runs in a subshell with errexit on, outside any
  # conditional context (where bash would ignore errexit inside it), so
  # its first failing command still ends the stage; only the script
  # carries on.
  set +e
  (
    set -e
    "$@"
  )
  status=$?
  set -e
  STAGE_NAMES+=("$name")
  STAGE_TIMES+=("$((SECONDS - start))")
  if [ "$status" -eq 0 ]; then
    STAGE_FAILS+=("")
  else
    STAGE_FAILS+=(" FAILED (exit $status)")
    FAILED_STAGES+=("$name")
    echo "ci.sh: stage '$name' FAILED (exit $status); continuing" >&2
  fi
  CURRENT_STAGE=""
}

fmt()           { cargo fmt --all -- --check; }
clippy()        { cargo clippy --workspace --all-targets -- -D warnings; }
# `cargo test` does not resolve intra-doc links; a deleted or private
# link target only shows here.
doc()           { RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps; }
build_release() { cargo build --workspace --release; }
# Early, cheap, and high-signal: every previously-shrunk counterexample in
# crates/check/tests/corpus/ must still pass before the random suites run.
replay_corpus() { cargo run --release -- check --replay-only; }
tests()         { cargo test --workspace --quiet; }
lint()          { cargo run --release -p meda-lint; }
audit_smoke()   { cargo run --release -- audit covid-rat; }
# Sound certification pass: certified [lo, hi] bounds (Pmax by interval
# iteration over the MEC quotient, Rmin read off the shipped strategy's
# exact induced-chain value) for every routed job (DESIGN.md §14).
audit_sound()   { cargo run --release -- audit covid-rat --sound; }
# The same at force 0.005, where expected cycles reach the thousands and
# near-stuck chain blocks leave little f64 headroom: every job must still
# certify.
audit_sound_weak() { cargo run --release -- audit covid-rat --sound --force 0.005; }
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
# The four full-mode bench bins are the bench gate. Each self-checks its
# claims and compares every value that is not wall-clock (`_ms`, `_ns`,
# `_speedup`) with its committed BENCH_*.json baseline bit for bit,
# exiting nonzero and naming the key on any drift (EXPERIMENTS.md has the
# re-bless flow). Smoke runs are not comparable with the full baselines.
#
# The paper-scale Table V matrix up to 90×90; the ≥10x claim is gated as
# a sweep ratio (Gauss-Seidel over topological) on the 90-wide cells.
bench_full()    { cargo run --release -p meda-bench --bin bench_synthesis; }
# All four fault classes: monotone degradation curves and reconfig
# dominance on the electrode-killing classes.
chaos_full()    { cargo run --release -p meda-bench --bin ext_chaos; }
# CEP, COVID-PCR and the multiplex assay at N ∈ {1,2,4,8}: every N ≥ 2
# strictly beats the serial makespan.
makespan_full() { cargo run --release -p meda-bench --bin bench_makespan; }
# The three-assay translated-geometry mix: every warm request hits the
# canonical cache, and warm hits are >= 10x faster than cold synthesis.
serve_full()    { cargo run --release -p meda-bench --bin bench_serve; }
profile_smoke() { cargo run --release -- profile covid-rat; }
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
stage "doc"            doc
stage "build-release"  build_release
stage "replay-corpus"  replay_corpus
stage "test"           tests
stage "lint"           lint
stage "audit-smoke"    audit_smoke
stage "audit-sound"    audit_sound
stage "audit-sound-weak" audit_sound_weak
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
else
  echo
  echo "==> --quick: skipping bench-full, chaos-full, makespan-full, serve-full, profile-smoke"
fi
[ "${#FAILED_STAGES[@]}" -eq 0 ]
