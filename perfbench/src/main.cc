// flowdiff_perfbench: the measuring side of the FlowDiff benchmark.
//
//   flowdiff_perfbench gen      --workload W --seed N --dir D
//   flowdiff_perfbench selfcheck --corpus DIR --work DIR
//   flowdiff_perfbench measure  --workload W --dir D --work DIR --seconds S
//                               [--obs 1] [--level1 1] [--spans FILE]
//   flowdiff_perfbench layers   --workload W --dir D --work DIR --seconds S
//                               [--spans FILE]
//
// `measure` repeats whole passes over the generated input (one warm-up
// pass, then passes until S seconds have gone by), checks every verdict
// against the reference, and prints one JSON line of raw totals. `layers`
// is the level-2 traced replay. run.py drives both and turns the totals
// into the benchmark's metrics.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include "common.h"
#include "harness.h"
#include "obs/metrics.h"

namespace perfbench {
namespace {

struct Args {
  std::map<std::string, std::string> values;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
};

int usage() {
  std::fprintf(stderr,
               "usage: flowdiff_perfbench gen|selfcheck|measure|layers "
               "--key value ...\n");
  return 2;
}

bool is_live(const std::string& workload) {
  return workload == "follow_clean" || workload == "socket_corrupted_16t";
}

std::string aggregates_json(const Recorder& rec) {
  JsonLine all;
  for (const auto& [name, agg] : rec.aggregates()) {
    JsonLine one;
    one.add("calls", agg.calls);
    one.add("total_s", agg.total_s);
    one.add("self_s", agg.self_s);
    one.add("allocs", agg.allocs);
    one.add("ms_p50", percentile(agg.durations_ms, 0.50));
    one.add("ms_p95", percentile(agg.durations_ms, 0.95));
    all.add_raw(name, one.str());
  }
  return all.str();
}

/// Host speed the reported timings are normalized to: probe_ms() reads
/// about this on the development host when nothing else runs on it.
constexpr double kProbeReferenceMs = 5.0;

/// Totals over the timed passes of one `measure` run.
///
/// Every timing of a pass is scaled by kProbeReferenceMs / probe, where
/// probe is probe_ms() measured just before the pass: the figures read as
/// if the host ran at its reference speed, so slow drifts of a shared
/// host's speed cancel. Rates and set-up are medians over passes. Verdict
/// latency percentiles are medians over passes of each pass's percentile
/// when a pass yields many verdicts (live), and percentiles over every
/// verdict of the run when a pass yields one (offline).
struct Totals {
  std::uint64_t passes = 0;
  std::uint64_t events = 0;
  double wall_s = 0.0;  ///< Normalized.
  double raw_cpu_s = 0.0;
  std::vector<double> events_per_s;
  std::vector<double> raw_events_per_s;
  std::vector<double> cpu_s_per_mevent;
  std::vector<double> setup_s;
  std::vector<double> probe_ms;
  std::vector<double> verdict_ms;  ///< Pooled over the run.
  std::vector<double> pass_p50, pass_p90, pass_p95, pass_wait_p95;
  std::uint64_t expected = 0;
  std::uint64_t failed = 0;

  /// Adds one pass; returns the factor its timings were scaled by.
  double add_pass(std::uint64_t pass_events, double pass_wall_s,
                  double pass_cpu_s, double pass_setup_s, double probe) {
    const double factor = kProbeReferenceMs / probe;
    const auto n = static_cast<double>(std::max<std::uint64_t>(1, pass_events));
    ++passes;
    events += pass_events;
    wall_s += pass_wall_s * factor;
    raw_cpu_s += pass_cpu_s;
    events_per_s.push_back(n / (pass_wall_s * factor));
    raw_events_per_s.push_back(n / pass_wall_s);
    cpu_s_per_mevent.push_back(pass_cpu_s * factor / n * 1e6);
    setup_s.push_back(pass_setup_s * factor);
    probe_ms.push_back(probe);
    return factor;
  }

  /// Adds one pass's verdict and manager-wait latencies, scaled by
  /// `factor`.
  void add_verdicts(const std::vector<double>& verdicts,
                    const std::vector<double>& waits, double factor) {
    std::vector<double> pass;
    for (const double v : verdicts) pass.push_back(v * factor);
    verdict_ms.insert(verdict_ms.end(), pass.begin(), pass.end());
    if (pass.size() > 1) {
      pass_p50.push_back(percentile(pass, 0.50));
      pass_p90.push_back(percentile(pass, 0.90));
      pass_p95.push_back(percentile(pass, 0.95));
    }
    pass.clear();
    for (const double v : waits) pass.push_back(v * factor);
    if (!pass.empty()) pass_wait_p95.push_back(percentile(pass, 0.95));
  }

  [[nodiscard]] double verdict_percentile(
      const std::vector<double>& per_pass, double q) const {
    return per_pass.empty() ? percentile(verdict_ms, q) : median(per_pass);
  }

  [[nodiscard]] std::string json() const {
    JsonLine line;
    line.add("passes", passes);
    line.add("events", events);
    line.add("wall_s", wall_s);
    line.add("raw_cpu_s", raw_cpu_s);
    line.add("events_per_s", median(events_per_s));
    line.add("raw_events_per_s", median(raw_events_per_s));
    line.add("probe_ms", median(probe_ms));
    line.add("cpu_s_per_mevent", median(cpu_s_per_mevent));
    line.add("setup_s", median(setup_s));
    line.add("verdicts", static_cast<std::uint64_t>(verdict_ms.size()));
    line.add("verdict_ms_p50", verdict_percentile(pass_p50, 0.50));
    line.add("verdict_ms_p90", verdict_percentile(pass_p90, 0.90));
    line.add("verdict_ms_p95", verdict_percentile(pass_p95, 0.95));
    line.add("wait_ms_p95", median(pass_wait_p95));
    line.add("expected", expected);
    line.add("failed", failed);
    line.add("peak_rss_mb", peak_rss_mb());
    return line.str();
  }
};

int measure_live(const Args& args, Recorder* rec) {
  const std::string dir = args.get("--dir");
  const LiveInput input = load_live_input(dir);
  std::vector<std::string> references;
  for (const std::string& tenant : input.tenants) {
    references.push_back(must_read(dir + "/ref_" + tenant + ".transcript"));
  }
  const double seconds = std::stod(args.get("--seconds", "10"));
  Totals totals;
  const auto check = [&](const LivePass& pass) {
    for (std::size_t t = 0; t < input.tenants.size(); ++t) {
      const auto [expected, failed] =
          compare_transcripts(references[t], pass.transcripts[t]);
      totals.expected += expected;
      totals.failed += failed;
    }
  };
  check(run_live_pass(input, args.get("--work"), nullptr));  // Warm-up.
  const Clock::time_point begin = Clock::now();
  while (totals.passes == 0 ||
         seconds_between(begin, Clock::now()) < seconds) {
    const double probe = probe_ms();
    const LivePass pass = run_live_pass(input, args.get("--work"), rec);
    check(pass);
    const double factor = totals.add_pass(pass.events, pass.wall_s,
                                          pass.cpu_s, pass.setup_s, probe);
    totals.add_verdicts(pass.verdict_ms, pass.wait_ms, factor);
  }
  JsonLine line;
  line.add_raw("totals", totals.json());
  if (rec != nullptr) line.add_raw("spans", aggregates_json(*rec));
  std::printf("%s\n", line.str().c_str());
  return 0;
}

int measure_offline(const Args& args, Recorder* rec) {
  const OfflineInput input = load_offline_input(args.get("--dir"));
  const double seconds = std::stod(args.get("--seconds", "10"));
  Totals totals;
  std::size_t k = 1;
  const auto next = [&] {
    const std::size_t current = k;
    k = k + 1 < input.segments.size() ? k + 1 : 1;
    return current;
  };
  const auto check = [&](const Diagnosis& d, std::size_t segment) {
    ++totals.expected;
    if (d.report != input.references[segment]) ++totals.failed;
  };
  {
    const std::size_t segment = next();
    check(run_diagnosis(input, segment, nullptr, false), segment);  // Warm-up.
  }
  // One probe per round over the segments: a diagnosis lasts ~100 ms, so a
  // probe before each one would cost a sixth of the run, and the host's
  // speed drifts over seconds, not within a round.
  const std::size_t round = input.segments.size() - 1;
  double probe = 0.0;
  const Clock::time_point begin = Clock::now();
  while (totals.passes == 0 ||
         seconds_between(begin, Clock::now()) < seconds) {
    const std::size_t segment = next();
    if (totals.passes % round == 0) probe = probe_ms();
    const Diagnosis d = run_diagnosis(input, segment, rec, false);
    check(d, segment);
    const double factor =
        totals.add_pass(d.events, d.wall_s, d.cpu_s, d.setup_s, probe);
    totals.add_verdicts({d.wall_s * 1e3}, {}, factor);
  }
  JsonLine line;
  line.add_raw("totals", totals.json());
  if (rec != nullptr) line.add_raw("spans", aggregates_json(*rec));
  std::printf("%s\n", line.str().c_str());
  return 0;
}

int layers_live(const Args& args, Recorder& rec) {
  const std::string dir = args.get("--dir");
  const LiveInput input = load_live_input(dir);
  // The reference counts: "windows=N alarms=M" on each transcript's 2nd line.
  std::vector<std::pair<std::size_t, std::size_t>> expected;
  for (const std::string& tenant : input.tenants) {
    const std::string text = must_read(dir + "/ref_" + tenant + ".transcript");
    std::size_t windows = 0;
    std::size_t alarms = 0;
    const auto at = text.find("windows=");
    if (at == std::string::npos ||
        std::sscanf(text.c_str() + at, "windows=%zu alarms=%zu", &windows,
                    &alarms) != 2) {
      std::fprintf(stderr, "perfbench: malformed reference for %s\n",
                   tenant.c_str());
      return 2;
    }
    expected.emplace_back(windows, alarms);
  }
  const double seconds = std::stod(args.get("--seconds", "10"));
  {
    // Warm-up, as in `measure`: the allocator's state after a pass is
    // what the probe and the timed passes see.
    Recorder warm_up;
    static_cast<void>(run_live_layers(input, args.get("--work"), warm_up));
  }
  LiveLayers sum;
  std::uint64_t passes = 0;
  std::uint64_t mismatches = 0;
  const Clock::time_point begin = Clock::now();
  std::vector<double> probes;
  while (passes == 0 || seconds_between(begin, Clock::now()) < seconds) {
    probes.push_back(probe_ms());
    const LiveLayers pass = run_live_layers(input, args.get("--work"), rec);
    ++passes;
    for (std::size_t t = 0; t < input.tenants.size(); ++t) {
      if (pass.tenant_windows[t] != expected[t].first ||
          pass.tenant_alarms[t] != expected[t].second) {
        ++mismatches;
      }
    }
    sum.events += pass.events;
    sum.polls += pass.polls;
    sum.empty_polls += pass.empty_polls;
    sum.lines_rejected += pass.lines_rejected;
    sum.windows += pass.windows;
    sum.alarms += pass.alarms;
    sum.not_ready_windows += pass.not_ready_windows;
    sum.sanitize_buffered_max =
        std::max(sum.sanitize_buffered_max, pass.sanitize_buffered_max);
    sum.sanitize_fed += pass.sanitize_fed;
    sum.sanitize_kept += pass.sanitize_kept;
  }
  JsonLine counts;
  counts.add("passes", passes);
  counts.add("events", sum.events);
  counts.add("polls", sum.polls);
  counts.add("empty_polls", sum.empty_polls);
  counts.add("lines_rejected", sum.lines_rejected);
  counts.add("windows", sum.windows);
  counts.add("alarms", sum.alarms);
  counts.add("not_ready_windows", sum.not_ready_windows);
  counts.add("sanitize_buffered_max", sum.sanitize_buffered_max);
  counts.add("sanitize_fed", sum.sanitize_fed);
  counts.add("sanitize_kept", sum.sanitize_kept);
  counts.add("mismatches", mismatches);
  counts.add("probe_ms", median(probes));
  JsonLine line;
  line.add_raw("counts", counts.str());
  line.add_raw("spans", aggregates_json(rec));
  std::printf("%s\n", line.str().c_str());
  return 0;
}

int layers_offline(const Args& args, Recorder& rec) {
  const OfflineInput input = load_offline_input(args.get("--dir"));
  const double seconds = std::stod(args.get("--seconds", "10"));
  std::uint64_t passes = 0;
  std::uint64_t events = 0;
  std::uint64_t mismatches = 0;
  std::size_t k = 1;
  std::vector<double> probes;
  static_cast<void>(run_diagnosis(input, k, nullptr, false));  // Warm-up.
  const Clock::time_point begin = Clock::now();
  while (passes == 0 || seconds_between(begin, Clock::now()) < seconds) {
    probes.push_back(probe_ms());
    const Diagnosis d = run_diagnosis(input, k, &rec, true);
    if (d.report != input.references[k]) ++mismatches;
    events += d.events;
    ++passes;
    k = k + 1 < input.segments.size() ? k + 1 : 1;
  }
  JsonLine counts;
  counts.add("passes", passes);
  counts.add("events", events);
  counts.add("mismatches", mismatches);
  counts.add("probe_ms", median(probes));
  JsonLine line;
  line.add_raw("counts", counts.str());
  line.add_raw("spans", aggregates_json(rec));
  std::printf("%s\n", line.str().c_str());
  return 0;
}

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  Args args;
  for (int i = 2; i + 1 < argc; i += 2) args.values[argv[i]] = argv[i + 1];
  const std::string workload = args.get("--workload");

  if (command == "gen") {
    return generate(workload, std::stoull(args.get("--seed", "42")),
                    args.get("--dir"));
  }
  if (command == "selfcheck") {
    return self_check(args.get("--corpus"), args.get("--work")) == 0 ? 0 : 1;
  }
  if (command == "measure") {
    flowdiff::obs::set_enabled(args.get("--obs", "0") == "1");
    Recorder rec;
    Recorder* level1 = args.get("--level1", "0") == "1" ? &rec : nullptr;
    const int rc = is_live(workload) ? measure_live(args, level1)
                                     : measure_offline(args, level1);
    if (level1 != nullptr && !args.get("--spans").empty()) {
      rec.write(args.get("--spans"));
    }
    return rc;
  }
  if (command == "layers") {
    Recorder rec;
    const int rc = is_live(workload) ? layers_live(args, rec)
                                     : layers_offline(args, rec);
    if (!args.get("--spans").empty()) rec.write(args.get("--spans"));
    return rc;
  }
  return usage();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
