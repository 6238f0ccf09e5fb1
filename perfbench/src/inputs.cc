// Seeded input generation and reference computation (the `gen` command).
//
// Everything here runs outside the measured process: it simulates the lab
// or the Fig. 13 tree, writes the bytes the harness later offers to the
// library, and computes every reference verdict with the repository's
// oracle paths.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.h"
#include "experiment/lab_experiment.h"
#include "experiment/scalability.h"
#include "faults/corruptor.h"
#include "faults/faults.h"
#include "flowdiff/incremental_model.h"
#include "flowdiff/monitor.h"
#include "harness.h"
#include "openflow/log_io.h"
#include "workload/fingerprint.h"
#include "workload/flood.h"
#include "workload/incast.h"

namespace perfbench {

using namespace flowdiff;

namespace {

constexpr SimDuration kLabWindow = 40 * kSecond;

enum class Episode { kHealthy, kSlowdown, kUnauthorized, kFingerprint, kFlood,
                     kIncast };

/// One lab window with the given episode, composed the way the committed
/// corpus generator composes its cases (same hosts, same timing).
void run_episode(exp::LabExperiment& lab, Episode episode, std::uint64_t seed,
                 std::vector<of::ControlEvent>& stream) {
  const auto& scenario = lab.lab();
  const SimTime begin = lab.now();
  of::ControlLog capture;
  switch (episode) {
    case Episode::kHealthy:
      capture = lab.run_window();
      break;
    case Episode::kSlowdown: {
      faults::ServerSlowdownFault fault(lab.net(), scenario.host("S4"),
                                        60 * kMillisecond, "logging");
      capture = lab.run_window(&fault);
      break;
    }
    case Episode::kUnauthorized: {
      faults::UnauthorizedAccessFault fault(
          lab.net(), scenario.host("S21"), scenario.host("S14"), 3306,
          begin + 5 * kSecond, begin + 20 * kSecond, 20);
      capture = lab.run_window(&fault);
      break;
    }
    case Episode::kFingerprint: {
      wl::FingerprintProber prober(lab.net(), scenario.host("S16"),
                                   scenario.services.ntp,
                                   wl::FingerprintSpec{}, Rng(seed + 901));
      prober.start(begin + 3 * kSecond, begin + 27 * kSecond);
      capture = lab.run_window();
      break;
    }
    case Episode::kFlood: {
      std::vector<HostId> botnet;
      for (const char* name : {"S1", "S5", "S9", "S13", "S18", "S22"}) {
        botnet.push_back(scenario.host(name));
      }
      wl::VolumetricFlood flood(lab.net(), std::move(botnet),
                                scenario.ip("S7"), wl::FloodSpec{},
                                Rng(seed + 902));
      flood.start(begin + 3 * kSecond, begin + 27 * kSecond);
      capture = lab.run_window();
      break;
    }
    case Episode::kIncast: {
      std::vector<HostId> workers;
      for (const char* name : {"S1", "S2", "S5", "S6", "S8", "S9", "S11",
                               "S13", "S16", "S17", "S21", "S22"}) {
        workers.push_back(scenario.host(name));
      }
      wl::IncastTraffic incast(lab.net(), std::move(workers),
                               scenario.host("S10"), wl::IncastSpec{},
                               Rng(seed + 903));
      incast.start(begin + 3 * kSecond, begin + 27 * kSecond);
      capture = lab.run_window();
      break;
    }
  }
  stream.insert(stream.end(), capture.events().begin(), capture.events().end());
}

std::vector<of::ControlEvent> lab_run(std::uint64_t seed,
                                      const std::vector<Episode>& episodes) {
  exp::LabExperimentConfig config;
  config.seed = seed;
  exp::LabExperiment lab{config};
  std::vector<of::ControlEvent> stream;
  for (const Episode episode : episodes) {
    run_episode(lab, episode, seed, stream);
  }
  return stream;
}

std::string services_of_lab() {
  const exp::LabExperiment lab{exp::LabExperimentConfig{}};
  std::string out;
  for (const Ipv4 ip : lab.flowdiff_config().model.special_nodes) {
    if (!out.empty()) out += ',';
    out += ip.to_string();
  }
  return out;
}

/// Replays one tenant's raw stream through the from-scratch oracle
/// (SlidingMonitor with incremental=false), event by event. Writes the
/// reference transcript and returns, per processed window, the index of
/// the raw event after which windows_processed() went up; windows closed
/// only by the final flush get the stream's length (end of stream).
std::vector<std::uint64_t> reference(const Plan& plan,
                                     const std::vector<of::ControlEvent>& raw,
                                     const std::string& dir,
                                     const std::string& tenant) {
  core::MonitorOptions options = plan_options(plan);
  options.incremental = false;
  core::SlidingMonitor oracle(options);
  std::vector<std::uint64_t> triggers;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    oracle.feed(raw[i]);
    while (triggers.size() < oracle.windows_processed()) triggers.push_back(i);
  }
  oracle.flush();
  while (triggers.size() < oracle.windows_processed()) {
    triggers.push_back(raw.size());
  }
  must_write(dir + "/ref_" + tenant + ".transcript",
             core::render_monitor_transcript(oracle));
  return triggers;
}

/// Writes the live input and its trigger table. `arrivals` is the offered
/// order as (tenant, index into that tenant's stream).
void write_live(const Plan& plan, const std::string& dir,
                const std::vector<std::vector<of::ControlEvent>>& tenants,
                const std::vector<std::pair<std::uint32_t, std::uint64_t>>&
                    arrivals) {
  std::string bytes;
  // byte_end[t][i]: offset just past tenant t's i-th event line.
  std::vector<std::vector<std::uint64_t>> byte_end(tenants.size());
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    byte_end[t].resize(tenants[t].size());
  }
  for (const auto& [t, i] : arrivals) {
    bytes += of::serialize_event(tenants[t][i]);
    bytes += '\n';
    byte_end[t][i] = bytes.size();
  }
  must_write(dir + "/input.log", bytes);

  const std::vector<std::string> names = plan_tenants(plan);
  std::string table;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const auto triggers = reference(plan, tenants[t], dir, names[t]);
    for (std::size_t w = 0; w < triggers.size(); ++w) {
      const std::uint64_t event = triggers[w];
      const std::uint64_t end =
          event < tenants[t].size() ? byte_end[t][event] : bytes.size();
      table += std::to_string(t) + " " + std::to_string(w) + " " +
               std::to_string(event) + " " + std::to_string(end) + "\n";
    }
  }
  must_write(dir + "/triggers.txt", table);
  must_write(dir + "/plan.txt", plan.render());
}

/// follow_clean: one composed lab run, repeated with a time shift that is a
/// whole number of windows, so every repetition lands on the same window
/// grid and the fixed baseline keeps diffing real windows.
void gen_follow_clean(std::uint64_t seed, const std::string& dir) {
  const std::vector<Episode> episodes = {
      Episode::kHealthy,     Episode::kHealthy, Episode::kSlowdown,
      Episode::kHealthy,     Episode::kUnauthorized, Episode::kHealthy,
      Episode::kFingerprint, Episode::kHealthy, Episode::kFlood,
      Episode::kHealthy,     Episode::kIncast,  Episode::kHealthy};
  const auto run = lab_run(seed, episodes);
  constexpr int kRepeats = 3;
  const SimTime first = run.front().ts;
  const SimDuration span = run.back().ts - first + 1;
  const SimDuration shift = (span + kLabWindow - 1) / kLabWindow * kLabWindow;
  std::vector<std::vector<of::ControlEvent>> tenants(1);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> arrivals;
  for (int r = 0; r < kRepeats; ++r) {
    for (of::ControlEvent event : run) {
      event.ts += r * shift;
      arrivals.emplace_back(0, tenants[0].size());
      tenants[0].push_back(std::move(event));
    }
  }
  Plan plan;
  plan.set("workload", "follow_clean");
  plan.set("source", "file");
  plan.set("tenant", "lab");
  plan.set("tenants", 1);
  plan.set("by_controller", 0);
  plan.set("workers", 0);
  plan.set("window_us", kLabWindow);
  plan.set("sanitize", 0);
  plan.set("lateness_us", kSecond);
  plan.set("rolling", 0);
  plan.set("services", services_of_lab());
  write_live(plan, dir, tenants, arrivals);
}

/// socket_corrupted_16t: four lab runs, each behind four independently
/// seeded 5% corruptors, interleaved into one capture by timestamp (each
/// tenant's own arrival order is kept).
void gen_socket_corrupted(std::uint64_t seed, const std::string& dir) {
  constexpr std::size_t kTenants = 16;
  constexpr std::size_t kRuns = 4;
  const Episode faults[kRuns] = {Episode::kSlowdown, Episode::kUnauthorized,
                                 Episode::kFlood, Episode::kIncast};
  std::vector<std::vector<of::ControlEvent>> tenants(kTenants);
  for (std::size_t r = 0; r < kRuns; ++r) {
    const auto run = lab_run(seed * 16 + r, {Episode::kHealthy,
                                             Episode::kHealthy, faults[r],
                                             Episode::kHealthy});
    of::ControlLog log;
    for (const auto& event : run) log.append(event);
    for (std::size_t k = 0; k < kTenants / kRuns; ++k) {
      const std::size_t t = r * (kTenants / kRuns) + k;
      faults::StreamCorruptor corruptor(
          faults::CorruptorConfig::uniform(0.05, seed * 1000 + t));
      tenants[t] = corruptor.corrupt(log);
      for (auto& event : tenants[t]) {
        event.controller = ControllerId{static_cast<std::uint32_t>(t)};
      }
    }
  }
  std::vector<std::pair<std::uint32_t, std::uint64_t>> arrivals;
  std::vector<std::size_t> next(kTenants, 0);
  for (;;) {
    std::size_t best = kTenants;
    for (std::size_t t = 0; t < kTenants; ++t) {
      if (next[t] == tenants[t].size()) continue;
      if (best == kTenants ||
          tenants[t][next[t]].ts < tenants[best][next[best]].ts) {
        best = t;
      }
    }
    if (best == kTenants) break;
    arrivals.emplace_back(static_cast<std::uint32_t>(best), next[best]++);
  }
  Plan plan;
  plan.set("workload", "socket_corrupted_16t");
  plan.set("source", "socket");
  plan.set("tenant", "mux");
  plan.set("tenants", static_cast<long long>(kTenants));
  plan.set("by_controller", 1);
  plan.set("workers", 2);
  plan.set("window_us", kLabWindow);
  plan.set("sanitize", 1);
  plan.set("lateness_us", kSecond);
  plan.set("rolling", 0);
  plan.set("services", services_of_lab());
  write_live(plan, dir, tenants, arrivals);
}

/// offline_diff: the Fig. 13 tree with nine apps, cut into 20 s segments.
/// The reference report for seg0 vs seg<k> comes from the other model path
/// (IncrementalModeler feed + finalize) and the same diff and render.
void gen_offline_diff(std::uint64_t seed, const std::string& dir) {
  constexpr int kSegments = 6;
  constexpr SimDuration kSegment = 20 * kSecond;
  exp::ScalabilityConfig config;
  config.app_count = 9;
  config.duration = kSegments * kSegment;
  config.seed = seed;
  const of::ControlLog capture = exp::capture_scalability_log(config);

  const core::FlowDiff flowdiff{core::FlowDiffConfig{}};
  const core::IncrementalModeler incremental(
      flowdiff.modeler().config(), flowdiff.modeler().shared_executor());
  const auto model_of = [&](const of::ControlLog& segment) {
    core::IncrementalWindowState state;
    for (const auto& event : segment.events()) incremental.feed(state, event);
    if (!incremental.ready(state)) {
      std::fprintf(stderr, "perfbench: incremental reference not ready\n");
      std::exit(2);
    }
    return incremental.finalize(state);
  };
  std::vector<core::BehaviorModel> models;
  for (int k = 0; k < kSegments; ++k) {
    const of::ControlLog segment =
        capture.slice(k * kSegment, (k + 1) * kSegment);
    must_write(dir + "/seg" + std::to_string(k) + ".log",
               of::serialize(segment));
    models.push_back(model_of(segment));
  }
  for (int k = 1; k < kSegments; ++k) {
    must_write(dir + "/ref_" + std::to_string(k) + ".report",
               flowdiff.diff(models[0], models[k]).render());
  }
  Plan plan;
  plan.set("workload", "offline_diff");
  plan.set("source", "files");
  plan.set("segments", kSegments);
  must_write(dir + "/plan.txt", plan.render());
}

}  // namespace

int generate(const std::string& workload, std::uint64_t seed,
             const std::string& dir) {
  ::mkdir(dir.c_str(), 0755);
  if (workload == "follow_clean") {
    gen_follow_clean(seed, dir);
  } else if (workload == "socket_corrupted_16t") {
    gen_socket_corrupted(seed, dir);
  } else if (workload == "offline_diff") {
    gen_offline_diff(seed, dir);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", workload.c_str());
    return 2;
  }
  return 0;
}

}  // namespace perfbench
