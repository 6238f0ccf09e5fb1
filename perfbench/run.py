#!/usr/bin/env python3
"""FlowDiff benchmark: one workload through the daemon path, checked.

Run from the repository root:

    python3 perfbench/run.py --workload follow_clean --seed 42 --seconds 20 --trace 0

Builds the library and the harness from this checkout (under .bench_build/),
generates the seeded inputs and their references once per seed (cached under
.bench_build/cache/), replays every committed corpus capture through the live
harness as a self-check, then measures. Prints every metric by name with its
unit, and as the last line one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics from the traced runs (see perfbench/BENCHMARK.md).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("follow_clean", "socket_corrupted_16t", "offline_diff")
LIVE = ("follow_clean", "socket_corrupted_16t")
BUILD_DIR = ".bench_build"
CACHE_SEEDS = 3  # Seed directories kept in the input cache.

# Per-layer metrics: (layer, kind). Per-event layers report ns_per_event;
# per-window and per-log layers report ms_p50 and ms_p95.
LAYERS = (
    ("poll", "event"),
    ("parse", "log"),
    ("sanitize", "event"),
    ("manager", "event"),
    ("incr_feed", "event"),
    ("finalize", "log"),
    ("model", "log"),
    ("diff", "log"),
    ("provenance", "log"),
    ("render", "log"),
)
# Level-2 spans summed into trace.coverage (the named layers' self time).
COVERED = ("poll", "parse", "sanitize", "incr_feed", "finalize", "model",
           "diff", "provenance", "render")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(2)


def build(root):
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no FlowDiff sources (src/CMakeLists.txt) in " + root)
    cmake_dir = os.path.join(root, BUILD_DIR, "cmake")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", cmake_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", cmake_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(cmake_dir, "flowdiff_perfbench")


def harness(binary, *args):
    """Runs one harness command; returns its last stdout line as JSON."""
    proc = subprocess.run([binary, *args], stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail("harness %s exited %d" % (" ".join(args[:3]), proc.returncode))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def inputs(binary, root, workload, seed):
    """Generates (or reuses) the seed's inputs; returns (dir, gen_s)."""
    cache = os.path.join(root, BUILD_DIR, "cache")
    seed_dir = os.path.join(cache, "seed%d" % seed)
    wdir = os.path.join(seed_dir, workload)
    stamp = os.path.join(wdir, "gen_s")
    if not os.path.isfile(stamp):
        shutil.rmtree(wdir, ignore_errors=True)
        os.makedirs(wdir)
        start = time.monotonic()
        harness(binary, "gen", "--workload", workload, "--seed", str(seed),
                "--dir", wdir)
        with open(stamp, "w") as f:
            f.write(repr(time.monotonic() - start))
    os.utime(seed_dir)
    seeds = sorted((os.path.join(cache, d) for d in os.listdir(cache)),
                   key=os.path.getmtime)
    for old in seeds[:-CACHE_SEEDS]:
        shutil.rmtree(old, ignore_errors=True)
    with open(stamp) as f:
        return wdir, float(f.read())


def end_to_end(workload, totals):
    metrics = {
        "events_per_s": (totals["events_per_s"], "events/s"),
        "cpu_s_per_mevent": (totals["cpu_s_per_mevent"], "s/Mevent"),
        "verdict_ms_p50": (totals["verdict_ms_p50"], "ms"),
        "verdict_ms_p95": (totals["verdict_ms_p95"], "ms"),
        "peak_rss_mb": (totals["peak_rss_mb"], "MB"),
        "setup_s": (totals["setup_s"], "s"),
    }
    extra = {"error_rate": (totals["failed"] / max(1, totals["expected"]),
                            "ratio"),
             "verdicts": (totals["verdicts"], "count"),
             "raw_events_per_s": (totals["raw_events_per_s"], "events/s"),
             "probe_ms": (totals["probe_ms"], "ms")}
    if workload == "offline_diff":
        extra["diagnosis_ms_p50"] = (totals["verdict_ms_p50"], "ms")
        extra["diagnosis_ms_p90"] = (totals["verdict_ms_p90"], "ms")
    return metrics, extra


def per_layer(workload, untraced, level1, obs_on, layers):
    """Per-layer metrics from the level-1 and level-2 traced runs."""
    spans = layers["spans"]
    counts = layers["counts"]
    events = max(1, counts["events"])
    l1_spans = level1.get("spans", {})
    l1_events = max(1, level1["totals"]["events"])

    def span(name):
        return spans.get(name, {"calls": 0, "self_s": 0.0, "allocs": 0,
                                "ms_p50": 0.0, "ms_p95": 0.0})

    metrics = {}
    for layer, kind in LAYERS:
        if layer == "manager":
            feed = l1_spans.get("feed", {"calls": 0, "self_s": 0.0,
                                         "allocs": 0})
            stop = l1_spans.get("stop_all", {"calls": 0, "self_s": 0.0,
                                             "allocs": 0})
            busy = feed["self_s"] + stop["self_s"]
            calls = feed["calls"] + stop["calls"]
            allocs = (feed["allocs"] + stop["allocs"]) / l1_events
            per_event_ns = busy * 1e9 / l1_events if calls else 0.0
        else:
            s = span(layer)
            busy, calls = s["self_s"], s["calls"]
            allocs = s["allocs"] / events
            per_event_ns = busy * 1e9 / events if calls else 0.0
        metrics[layer + ".busy_s"] = (busy, "s")
        metrics[layer + ".calls"] = (calls, "count")
        metrics[layer + ".allocs_per_event"] = (allocs, "allocs/event")
        if kind == "event":
            metrics[layer + ".ns_per_event"] = (per_event_ns, "ns")
        else:
            metrics[layer + ".ms_p50"] = (span(layer)["ms_p50"], "ms")
            metrics[layer + ".ms_p95"] = (span(layer)["ms_p95"], "ms")
    polls = counts.get("polls", 0)
    metrics["poll.empty_ratio"] = (
        counts.get("empty_polls", 0) / polls if polls else 0.0, "ratio")
    metrics["poll.lines_rejected"] = (counts.get("lines_rejected", 0), "count")
    metrics["sanitize.buffered_max"] = (
        counts.get("sanitize_buffered_max", 0), "count")
    fed = counts.get("sanitize_fed", 0)
    metrics["sanitize.kept_ratio"] = (
        counts.get("sanitize_kept", 0) / fed if fed else 0.0, "ratio")
    metrics["manager.verdict_wait_ms_p95"] = (
        level1["totals"]["wait_ms_p95"] if workload in LIVE else 0.0, "ms")
    metrics["finalize.not_ready_windows"] = (
        counts.get("not_ready_windows", 0), "count")

    def wall_per_event(run):
        t = run["totals"]
        return t["wall_s"] / max(1, t["events"])

    # Level 2 and the untraced run happen at different times; dividing each
    # by its own host probe cancels the host's drift between them.
    t = untraced["totals"]
    untraced_cost = t["raw_cpu_s"] / max(1, t["events"]) / t["probe_ms"]
    busy = sum(span(name)["self_s"] for name in COVERED)
    layer_cost = busy / events / counts["probe_ms"]
    metrics["trace.coverage"] = (layer_cost / untraced_cost, "ratio")
    metrics["trace.overhead_ratio"] = (
        wall_per_event(level1) / wall_per_event(untraced), "ratio")
    metrics["obs.overhead_ratio"] = (
        wall_per_event(obs_on) / wall_per_event(untraced), "ratio")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    binary = build(root)
    wdir, gen_s = inputs(binary, root, args.workload, args.seed)
    # Relative, so the unix socket path stays short in any checkout.
    work = os.path.join(BUILD_DIR, "work")
    os.makedirs(work, exist_ok=True)

    check = subprocess.run([binary, "selfcheck", "--corpus",
                            os.path.join(root, "tests", "corpus"),
                            "--work", work])
    self_check_ok = check.returncode == 0

    common = ["--workload", args.workload, "--dir", wdir, "--work", work]
    seconds = args.seconds
    if args.trace == 0:
        run = harness(binary, "measure", *common, "--seconds", str(seconds))
        metrics, extra = end_to_end(args.workload, run["totals"])
        attempted = run["totals"]["expected"]
        failed = run["totals"]["failed"]
        layer_ok = True
    else:
        # Four shorter phases keep a traced run near two measured lengths.
        phase = str(max(1.0, seconds / 2))
        trace_dir = os.path.join(root, BUILD_DIR, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        stem = os.path.join(trace_dir, args.workload)  # Latest run only.
        untraced = harness(binary, "measure", *common, "--seconds", phase)
        level1 = harness(binary, "measure", *common, "--seconds", phase,
                         "--level1", "1", "--spans", stem + "-level1.jsonl")
        obs_on = harness(binary, "measure", *common, "--seconds", phase,
                         "--obs", "1")
        layers = harness(binary, "layers", *common, "--seconds", phase,
                         "--spans", stem + "-level2.jsonl")
        metrics = per_layer(args.workload, untraced, level1, obs_on, layers)
        runs = (untraced, level1, obs_on)
        attempted = sum(r["totals"]["expected"] for r in runs)
        failed = sum(r["totals"]["failed"] for r in runs)
        layer_ok = layers["counts"]["mismatches"] == 0
        extra = {"level2_passes": (layers["counts"]["passes"], "count")}
    extra["gen_s"] = (gen_s, "s")

    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print("%-32s %16.6g %s" % (name, value, unit))
    if not self_check_ok:
        print("self-check FAILED: corpus goldens do not match the live path")
    if not layer_ok:
        print("level-2 replay FAILED: window/alarm counts differ")
    result = {
        "correct": self_check_ok and layer_ok and failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
