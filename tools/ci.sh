#!/usr/bin/env bash
# Minimal CI for FlowDiff:
#   1. tier-1 verify: configure, build, and run the full test suite;
#   2. loaded host: rerun the http/serve/provenance/incremental suites 20
#      times, two ctest jobs per core, next to one `yes` CPU hog per core.
#      Their verdicts (/healthz, transcripts, provenance) are functions of
#      the input stream, so a slow host may only slow them down, never flip
#      them. Oversubscribing is what makes this a gate: at one job per core
#      next to the hogs, a load-dependent /healthz verdict passed all 20
#      repeats;
#   3. perfbench smoke: a 2 s run of each perfbench/run.py workload (the
#      benchmark of record, see perfbench/BENCHMARK.md): the file-tail,
#      socket and offline paths all run the control-log parser. Each run
#      replays every corpus capture through the live daemon path as a
#      self-check before measuring and checks every verdict against its
#      reference; the leg fails unless every run reports "correct": true.
#      A further 2 s traced follow_clean run gates the incremental path's
#      mechanism on two counts: finalize.not_ready_windows == 0 and
#      incr_feed.allocs_per_event < 0.05;
#   4. attack sweep: run bench/attack_sweep over the lab deployment
#      (gated on recall and false alarms), writing its result to
#      build-ci/BENCH_attack.json so the committed file is never rewritten;
#   5. AddressSanitizer pass: rebuild with FLOWDIFF_SANITIZE=address and
#      rerun ctest, then rerun the ingest suites (sanitizer and log
#      parser, ctest -L ingest) and the telemetry-plane suite (ctest -L
#      http) so their verdicts are visible on their own in the transcript;
#   6. UndefinedBehaviorSanitizer pass: rebuild with
#      FLOWDIFF_SANITIZE=undefined and rerun the obs-layer tests (the
#      sampler/recorder code paths PRs keep touching), plus the
#      ingest legs: the sanitizer's and the log parser's unit and
#      differential suites (ctest -L ingest), the golden-trace corpus
#      (ctest -L corpus) and the seeded-corruption fuzz suites (ctest -L
#      fuzz) — corrupted captures are exactly where out-of-range
#      arithmetic would hide — the adversarial-scenario suites (ctest -L
#      attack: attack generators, diagnosis refinement, determinism
#      pins), and the serve/provenance suites, which previously only
#      reran under ASan/TSan;
#   7. corruption sweep: run bench/corruption_sweep in the UBSan tree —
#      diagnosis accuracy vs corruption rate, end to end under the
#      sanitizer;
#   8. ThreadSanitizer pass: rebuild with FLOWDIFF_SANITIZE=thread and
#      rerun the concurrency-heavy suites (executor pool, parallel model
#      build, monitor and incremental-model suites, obs layer), plus the
#      http-labeled telemetry-plane suite — scraping a live monitor is the
#      cross-thread read path most likely to hide a race — the
#      provenance-labeled suites (provenance records are built on the
#      feeding thread and read from the serve thread and explain CLI), and
#      the serve-labeled daemon suites: MonitorManager schedules per-tenant
#      shards across a worker pool while the telemetry plane reads them.
#
# Usage: tools/ci.sh [--skip-asan] [--skip-ubsan] [--skip-tsan]
# Run from anywhere; build trees land in <repo>/build-ci{,-asan,-ubsan,-tsan}.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
skip_asan=0
skip_ubsan=0
skip_tsan=0
for arg in "$@"; do
  case "$arg" in
    --skip-asan) skip_asan=1 ;;
    --skip-ubsan) skip_ubsan=1 ;;
    --skip-tsan) skip_tsan=1 ;;
    *)
      echo "unknown flag: $arg" >&2
      exit 2
      ;;
  esac
done

run_suite() {
  local build_dir="$1"
  shift
  local ctest_filter=""
  if [[ "${1:-}" == --tests=* ]]; then
    ctest_filter="${1#--tests=}"
    shift
  fi
  cmake -B "$build_dir" -S "$repo" "$@"
  cmake --build "$build_dir" -j "$jobs"
  if [[ -n "$ctest_filter" ]]; then
    ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" \
      --no-tests=error -R "$ctest_filter"
  else
    ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"
  fi
}

echo "== tier-1: build + ctest =="
run_suite "$repo/build-ci"

echo "== loaded host: ctest -j $((2 * jobs)) -L http|serve|provenance|incremental x20 next to $jobs CPU hogs =="
# Each hog is bounded by timeout in case this script dies before the trap
# runs; the EXIT trap stops them on every path out, a failing ctest included.
hogs=()
stop_hogs() {
  if ((${#hogs[@]} > 0)); then
    kill "${hogs[@]}" 2>/dev/null || true
    wait "${hogs[@]}" 2>/dev/null || true
  fi
  hogs=()
}
trap stop_hogs EXIT
for ((i = 0; i < jobs; ++i)); do
  timeout 1800 yes >/dev/null &
  hogs+=("$!")
done
ctest --test-dir "$repo/build-ci" --output-on-failure -j "$((2 * jobs))" \
  --no-tests=error --repeat until-fail:20 -L 'http|serve|provenance|incremental'
stop_hogs
trap - EXIT

# run.py exits 0 whether or not the run was correct; the verdict is the
# "correct" field of the JSON object on its last stdout line.
for workload in follow_clean socket_corrupted_16t offline_diff; do
  echo "== bench: perfbench $workload smoke (corpus self-check + verdicts) =="
  perf_out="$(cd "$repo" && python3 perfbench/run.py --workload "$workload" \
    --seconds 2 --trace 0)"
  printf '%s\n' "$perf_out"
  if ! printf '%s\n' "$perf_out" | tail -n 1 | python3 -c \
      'import json, sys; sys.exit(0 if json.load(sys.stdin).get("correct") is True else 1)'; then
    echo "perfbench $workload: run not correct" >&2
    exit 1
  fi
done

# The incremental path's mechanism, read off a traced follow_clean run:
# every window must finalize from the delta-maintained state (none handed
# to the from-scratch oracle), and feeding a recycled window state must
# stay (almost) allocation-free. Both are counts, not timings, so a loaded
# host cannot flip them.
echo "== bench: perfbench follow_clean traced (incremental path gate) =="
perf_out="$(cd "$repo" && python3 perfbench/run.py --workload follow_clean \
  --seconds 2 --trace 1)"
printf '%s\n' "$perf_out" | tail -n 1
if ! printf '%s\n' "$perf_out" | tail -n 1 | python3 -c '
import json, sys
run = json.load(sys.stdin)
m = run["metrics"]
not_ready = m["finalize.not_ready_windows"]["value"]
allocs = m["incr_feed.allocs_per_event"]["value"]
print(f"finalize.not_ready_windows={not_ready} incr_feed.allocs_per_event={allocs}")
sys.exit(0 if run.get("correct") is True and not_ready == 0 and allocs < 0.05 else 1)'; then
  echo "perfbench follow_clean: incremental path gate failed" >&2
  exit 1
fi

echo "== bench: adversarial recall/false-alarm sweep (build-ci/BENCH_attack.json) =="
# Gated: nominal-intensity recall >= 0.9 with zero steady false alarms, or
# the sweep exits nonzero and CI fails here. The result goes to the build
# tree: its latency field is wall-clock, so rewriting the committed
# BENCH_attack.json on every run would only churn it.
"$repo/build-ci/bench/attack_sweep" --out="$repo/build-ci/BENCH_attack.json"

if [[ "$skip_asan" -eq 0 ]]; then
  echo "== ASan: build + ctest (FLOWDIFF_SANITIZE=address) =="
  run_suite "$repo/build-ci-asan" -DFLOWDIFF_SANITIZE=address
  # The full suite above already ran these; the labeled rerun makes the
  # ingest legs' verdicts visible on their own in the CI transcript.
  echo "== ASan: golden corpus + corruption fuzz (ctest -L corpus/fuzz) =="
  ctest --test-dir "$repo/build-ci-asan" --output-on-failure -j "$jobs" \
    --no-tests=error -L 'corpus|fuzz'
  # The sanitizer's ring/heap reorder buffer indexes a circular buffer by
  # hand, and the log parser walks a raw cursor over each line; their unit
  # and differential suites run instrumented here.
  echo "== ASan: ingest sanitizer + log parser (ctest -L ingest) =="
  ctest --test-dir "$repo/build-ci-asan" --output-on-failure -j "$jobs" \
    --no-tests=error -L ingest
  echo "== ASan: telemetry plane (ctest -L http) =="
  ctest --test-dir "$repo/build-ci-asan" --output-on-failure -j "$jobs" \
    --no-tests=error -L http
  echo "== ASan: serve daemon (ctest -L serve) =="
  ctest --test-dir "$repo/build-ci-asan" --output-on-failure -j "$jobs" \
    --no-tests=error -L serve
  # Delta-maintained window modeling: window storage cleared and reused
  # in place at every close is exactly where a stale pointer would hide.
  echo "== ASan: incremental window modeling (ctest -L incremental) =="
  ctest --test-dir "$repo/build-ci-asan" --output-on-failure -j "$jobs" \
    --no-tests=error -L incremental
fi

if [[ "$skip_ubsan" -eq 0 ]]; then
  echo "== UBSan: build + obs tests (FLOWDIFF_SANITIZE=undefined) =="
  run_suite "$repo/build-ci-ubsan" \
    "--tests=^(ObsTest|TimeseriesTest|FlightRecorderTest|ReportTest)\." \
    -DFLOWDIFF_SANITIZE=undefined
  echo "== UBSan: golden corpus + corruption fuzz (ctest -L corpus/fuzz) =="
  ctest --test-dir "$repo/build-ci-ubsan" --output-on-failure -j "$jobs" \
    --no-tests=error -L 'corpus|fuzz'
  # Watermark saturation next to the int64 minimum, the identity hash's
  # shifts and the parser's overflow-checked digit loop are where
  # signed/shift UB would hide.
  echo "== UBSan: ingest sanitizer + log parser (ctest -L ingest) =="
  ctest --test-dir "$repo/build-ci-ubsan" --output-on-failure -j "$jobs" \
    --no-tests=error -L ingest
  echo "== UBSan: adversarial scenario suites (ctest -L attack) =="
  ctest --test-dir "$repo/build-ci-ubsan" --output-on-failure -j "$jobs" \
    --no-tests=error -L attack
  # serve/provenance previously reran only under ASan/TSan; integer-heavy
  # demux and stage-latency math deserve the UBSan pass too.
  echo "== UBSan: serve daemon + alarm provenance (ctest -L serve/provenance) =="
  ctest --test-dir "$repo/build-ci-ubsan" --output-on-failure -j "$jobs" \
    --no-tests=error -L 'serve|provenance'
  # The incremental modeler's streaming aggregates (histogram binning,
  # running sums, per-segment re-bucketing) are arithmetic-dense; UBSan
  # guards the oracle-identity sweep's math.
  echo "== UBSan: incremental window modeling (ctest -L incremental) =="
  ctest --test-dir "$repo/build-ci-ubsan" --output-on-failure -j "$jobs" \
    --no-tests=error -L incremental
  echo "== UBSan: corruption sweep bench (quick) =="
  "$repo/build-ci-ubsan/bench/corruption_sweep" --quick
  echo "== UBSan: attack sweep bench (quick) =="
  "$repo/build-ci-ubsan/bench/attack_sweep" --quick \
    --out="$repo/build-ci-ubsan/bench_attack_quick.json"
fi

if [[ "$skip_tsan" -eq 0 ]]; then
  echo "== TSan: build + concurrency tests (FLOWDIFF_SANITIZE=thread) =="
  run_suite "$repo/build-ci-tsan" \
    "--tests=^(ExecutorTest|ParallelModel|IncrementalModel|SlidingMonitor|ObsTest|TimeseriesTest|FlightRecorderTest)\." \
    -DFLOWDIFF_SANITIZE=thread
  # The scrape path is where a torn window commit would surface as a data
  # race: the serve thread reading monitor state while the feeding thread
  # commits windows.
  echo "== TSan: telemetry plane under scrape load (ctest -L http) =="
  ctest --test-dir "$repo/build-ci-tsan" --output-on-failure -j "$jobs" \
    --no-tests=error -L http
  # Provenance rings commit on the feeding thread and are read
  # concurrently by /provenance scrapes and the explain CLI.
  echo "== TSan: alarm provenance (ctest -L provenance) =="
  ctest --test-dir "$repo/build-ci-tsan" --output-on-failure -j "$jobs" \
    --no-tests=error -L provenance
  # The serve daemon is the most concurrent thing in the tree: per-tenant
  # shard tasks on the manager pool, live sources on the serve loop, and
  # the telemetry plane reading shard state from its own thread.
  echo "== TSan: serve daemon (ctest -L serve) =="
  ctest --test-dir "$repo/build-ci-tsan" --output-on-failure -j "$jobs" \
    --no-tests=error -L serve
  # Incremental window state is fed, finalized, and reset in place on the
  # feeding thread (a manager pool task under serve) while scrapes read the
  # committed results from the telemetry plane's thread.
  echo "== TSan: incremental window modeling (ctest -L incremental) =="
  ctest --test-dir "$repo/build-ci-tsan" --output-on-failure -j "$jobs" \
    --no-tests=error -L incremental
fi

echo "CI passed."
