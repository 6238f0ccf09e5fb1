// Incremental-vs-oracle property sweep: randomized admit/retire event
// streams (seeded, with duplicate timestamps, multi-hop flows, stats polls,
// empty windows, and sanitizer-suppressed arrivals) must produce
// IncrementalModeler finalizes that are bit-identical — via describe_model,
// the lossless hexfloat dump — to a from-scratch Modeler::build over the
// same window, after every window slide. Monitor-level runs must emit
// byte-identical transcripts with the incremental path on and off.
#include "flowdiff/incremental_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "experiment/lab_experiment.h"
#include "flowdiff/model.h"
#include "flowdiff/monitor.h"
#include "openflow/control_log.h"
#include "util/rng.h"

namespace flowdiff::core {
namespace {

Ipv4 host(int app, int i) {
  return Ipv4(10, 0, static_cast<std::uint8_t>(app),
              static_cast<std::uint8_t>(i + 1));
}

of::ControlEvent pin(SimTime ts, std::uint32_t sw, const of::FlowKey& k) {
  of::PacketIn msg;
  msg.sw = SwitchId{sw};
  msg.in_port = PortId{1};
  msg.key = k;
  return of::ControlEvent{ts, ControllerId{0}, msg};
}

of::ControlEvent fmod(SimTime ts, std::uint32_t sw, const of::FlowKey& k) {
  of::FlowMod msg;
  msg.sw = SwitchId{sw};
  msg.out_port = PortId{2};
  msg.key = k;
  return of::ControlEvent{ts, ControllerId{0}, msg};
}

of::ControlEvent fremoved(SimTime ts, std::uint32_t sw, const of::FlowKey& k,
                          SimDuration duration, std::uint64_t bytes) {
  of::FlowRemoved msg;
  msg.sw = SwitchId{sw};
  msg.key = k;
  msg.duration = duration;
  msg.byte_count = bytes;
  msg.packet_count = bytes / 100;
  return of::ControlEvent{ts, ControllerId{0}, msg};
}

of::ControlEvent fstats(SimTime ts, std::uint32_t sw, const of::FlowKey& k,
                        SimDuration age, std::uint64_t bytes) {
  of::FlowStatsReply msg;
  msg.sw = SwitchId{sw};
  msg.key = k;
  msg.age = age;
  msg.byte_count = bytes;
  return of::ControlEvent{ts, ControllerId{0}, msg};
}

/// A randomized admit/retire stream over three small app clusters:
/// dependency chains a -> b -> c (so DD triples form), multi-hop installs,
/// FlowRemoved retirements, stats polls, PacketOut/EchoReply noise,
/// duplicate timestamps (time advances by 0 with real probability), and
/// occasional multi-window gaps (empty windows). Returned time-sorted
/// (stable), so feeding it in order is a valid monitor stream.
std::vector<of::ControlEvent> random_stream(std::uint64_t seed,
                                            SimTime duration) {
  Rng rng(seed);
  std::vector<of::ControlEvent> events;
  SimTime now = 0;
  std::uint16_t next_port = 20000;
  while (now < duration) {
    const int app = static_cast<int>(rng.uniform_int(0, 2));
    const int a = static_cast<int>(rng.uniform_int(0, 3));
    int b = static_cast<int>(rng.uniform_int(0, 3));
    if (rng.bernoulli(0.05)) b = a;  // Occasional self-flow (x, x).
    const of::FlowKey key{host(app, a), host(app, b), next_port++, 80,
                          of::Proto::kTcp};
    const auto hops = rng.uniform_int(1, 3);
    SimTime t = now;
    for (std::int64_t h = 0; h < hops; ++h) {
      const auto sw = static_cast<std::uint32_t>(app * 4 + h + 1);
      events.push_back(pin(t, sw, key));
      if (!rng.bernoulli(0.1)) {  // 10% of installs go unanswered.
        events.push_back(
            fmod(t + rng.uniform_int(0, 2 * kMillisecond), sw, key));
      }
      t += rng.uniform_int(0, 5 * kMillisecond);
    }
    if (rng.bernoulli(0.7)) {  // Chain: the dependency DD should pair.
      const int c = static_cast<int>(rng.uniform_int(0, 3));
      const of::FlowKey out{host(app, b), host(app, c), next_port++, 80,
                            of::Proto::kTcp};
      events.push_back(pin(t + rng.uniform_int(0, 400 * kMillisecond),
                           static_cast<std::uint32_t>(app * 4 + 1), out));
    }
    if (rng.bernoulli(0.6)) {  // Retirement with counters.
      events.push_back(fremoved(
          now + rng.uniform_int(kMillisecond, 2 * kSecond),
          static_cast<std::uint32_t>(app * 4 + 1), key,
          rng.uniform_int(kMillisecond, kSecond),
          static_cast<std::uint64_t>(rng.uniform_int(100, 1 << 20))));
    }
    if (rng.bernoulli(0.2)) {  // Stats poll (age 0 sometimes: ignored).
      events.push_back(fstats(
          now + rng.uniform_int(0, kSecond),
          static_cast<std::uint32_t>(app * 4 + 1), key,
          rng.bernoulli(0.2) ? 0 : rng.uniform_int(1, kSecond),
          static_cast<std::uint64_t>(rng.uniform_int(100, 1 << 16))));
    }
    if (rng.bernoulli(0.1)) {
      of::EchoReply echo;
      echo.sw = SwitchId{static_cast<std::uint32_t>(app * 4 + 1)};
      events.push_back(of::ControlEvent{now, ControllerId{0}, echo});
    }
    // Duplicate timestamps are the norm here: ~1/3 of iterations do not
    // advance time at all.
    if (!rng.bernoulli(0.35)) now += rng.uniform_int(1, 40 * kMillisecond);
    if (rng.bernoulli(0.01)) now += 3 * kSecond;  // Multi-window gap.
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const of::ControlEvent& x, const of::ControlEvent& y) {
                     return x.ts < y.ts;
                   });
  return events;
}

struct OraclePair {
  explicit OraclePair(const ModelConfig& config)
      : modeler(config), inc(config, modeler.shared_executor()) {}
  Modeler modeler;
  IncrementalModeler inc;
};

/// Cuts `events` into `window`-sized tumbling windows and checks, at every
/// slide, that the incremental finalize is byte-identical to the
/// from-scratch build of the same window. Returns windows compared.
int sweep_stream(const std::vector<of::ControlEvent>& events,
                 const ModelConfig& config, SimDuration window) {
  OraclePair o(config);
  int compared = 0;
  of::ControlLog log;
  IncrementalWindowState state;
  SimTime window_start = events.empty() ? 0 : events.front().ts;
  auto close = [&] {
    if (log.empty()) return;  // Empty window: nothing to compare.
    EXPECT_TRUE(o.inc.ready(state)) << "in-order stream fell back";
    const std::string got = describe_model(o.inc.finalize(state));
    const std::string want = describe_model(o.modeler.build(log));
    EXPECT_EQ(got, want) << "window " << compared << " diverged";
    ++compared;
    log.clear();
    state.reset();
  };
  for (const auto& event : events) {
    while (event.ts >= window_start + window) {
      close();
      window_start += window;
    }
    log.append(event);
    o.inc.feed(state, event);
  }
  close();
  return compared;
}

TEST(IncrementalModel, RandomStreamsMatchOracleAfterEverySlide) {
  ModelConfig config;
  config.app.min_edge_flows = 1;  // Sparse edges stay visible.
  int total = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    total += sweep_stream(random_stream(seed, 8 * kSecond), config, kSecond);
  }
  EXPECT_GE(total, 20) << "sweep degenerated; streams too short";
}

TEST(IncrementalModel, ConfigVariantsMatchOracle) {
  for (const std::uint64_t min_flows : {std::uint64_t{1}, std::uint64_t{3}}) {
    for (const bool partial : {false, true}) {
      ModelConfig config;
      config.app.min_edge_flows = min_flows;
      config.app.pc_control_for_group = partial;
      config.stability_segments = 3;
      const int n =
          sweep_stream(random_stream(11, 6 * kSecond), config, kSecond);
      EXPECT_GT(n, 0) << "min_flows=" << min_flows << " partial=" << partial;
    }
  }
}

TEST(IncrementalModel, UnsupportedConfigRefusesIncrementalPath) {
  // min_edge_flows == 0 makes the from-scratch extractors emit zero-sample
  // pairs the stream never observes; the incremental path must refuse
  // rather than risk divergence.
  ModelConfig config;
  config.app.min_edge_flows = 0;
  EXPECT_FALSE(IncrementalModeler::supported(config));
  OraclePair o(config);
  IncrementalWindowState state;
  o.inc.feed(state, pin(100, 1,
                        of::FlowKey{host(0, 0), host(0, 1), 1, 80,
                                    of::Proto::kTcp}));
  EXPECT_FALSE(o.inc.ready(state));
}

TEST(IncrementalModel, OutOfOrderWindowFallsBack) {
  ModelConfig config;
  OraclePair o(config);
  IncrementalWindowState state;
  const of::FlowKey k{host(0, 0), host(0, 1), 1, 80, of::Proto::kTcp};
  o.inc.feed(state, pin(1000, 1, k));
  EXPECT_TRUE(o.inc.ready(state));
  o.inc.feed(state, pin(900, 1, k));  // Timestamp regression.
  EXPECT_FALSE(o.inc.ready(state));
  EXPECT_TRUE(state.fallback);
}

TEST(IncrementalModel, FreshStateIsNotReady) {
  ModelConfig config;
  OraclePair o(config);
  const IncrementalWindowState state;  // Empty window: never fed.
  EXPECT_FALSE(o.inc.ready(state));
}

TEST(IncrementalModel, ResetClearsEverything) {
  ModelConfig config;
  config.app.min_edge_flows = 1;
  OraclePair o(config);
  IncrementalWindowState state;
  for (const auto& event : random_stream(7, 2 * kSecond)) {
    o.inc.feed(state, event);
  }
  ASSERT_TRUE(state.active);
  state.reset();
  EXPECT_FALSE(state.active);
  EXPECT_FALSE(state.fallback);
  EXPECT_EQ(state.events, 0u);
  EXPECT_TRUE(state.occurrences.empty());
  EXPECT_TRUE(state.edges.empty());
  EXPECT_TRUE(state.triples.empty());
  // A recycled state must behave exactly like a fresh one.
  const auto events = random_stream(8, 2 * kSecond);
  of::ControlLog log;
  for (const auto& event : events) {
    log.append(event);
    o.inc.feed(state, event);
  }
  ASSERT_TRUE(o.inc.ready(state));
  EXPECT_EQ(describe_model(o.inc.finalize(state)),
            describe_model(o.modeler.build(log)));
}

/// Monitor transcripts (audits, alarms, provenance) with the incremental
/// path on vs. off — the off mode forces every window through the
/// from-scratch oracle, so equality here is end-to-end bit-identity.
std::string monitor_transcripts(const std::vector<of::ControlEvent>& events,
                                bool incremental, bool sanitize,
                                SimDuration window = kSecond,
                                const FlowDiffConfig& flowdiff = {}) {
  MonitorConfig config;
  config.flowdiff = flowdiff;
  config.window = window;
  config.rolling_baseline = true;
  config.sample_metrics = false;
  config.incremental = incremental;
  config.sanitize = sanitize;
  SlidingMonitor monitor(config);
  monitor.feed(events);
  monitor.flush();
  return render_monitor_transcript(monitor) + "\n" +
         render_provenance_transcript(monitor);
}

TEST(IncrementalModel, MonitorMatchesOracleModeAcrossDepths) {
  const auto events = random_stream(21, 8 * kSecond);
  const std::string oracle = monitor_transcripts(events, false, false);
  ASSERT_FALSE(oracle.empty());
  EXPECT_EQ(monitor_transcripts(events, true, false), oracle);
}

TEST(IncrementalModel, IdleBusyAlternationMatchesOracleMode) {
  // A monitor clears its window log and incremental state in place after
  // every busy window and skips idle ones untouched. Stretching the lab
  // stream so that only every other window holds events makes each busy
  // window follow an idle one: stale state surviving the clear, or an idle
  // window disturbing it, would show as a transcript diverging from the
  // from-scratch oracle.
  exp::LabExperiment lab{exp::LabExperimentConfig{}};
  const of::ControlLog log = lab.run_window();
  ASSERT_FALSE(log.empty());
  const SimDuration window = 5 * kSecond;
  // An event in window w (counted from the first event, where the
  // monitor's first window opens) moves to window 2w.
  const SimTime start = log.begin_time();
  std::vector<of::ControlEvent> stretched;
  stretched.reserve(log.size());
  std::set<SimTime> busy;
  for (const auto& event : log.events()) {
    const SimTime w = (event.ts - start) / window;
    stretched.push_back(event);
    stretched.back().ts = event.ts + w * window;
    busy.insert(2 * w);
  }
  ASSERT_GE(busy.size(), 3u) << "stretch produced too few busy windows";

  for (const bool sanitize : {false, true}) {
    const std::string oracle = monitor_transcripts(
        stretched, false, sanitize, window, lab.flowdiff_config());
    EXPECT_EQ(monitor_transcripts(stretched, true, sanitize, window,
                                  lab.flowdiff_config()),
              oracle)
        << "sanitize=" << sanitize;
  }
}

TEST(IncrementalModel, SanitizerDegradedStreamMatchesOracleMode) {
  // Corrupt the arrival order: displace a slice of events far enough past
  // the sanitizer's lateness horizon that it drops them (a degraded,
  // suppression-prone stream), and duplicate another slice. Both monitor
  // modes see the same restored stream, so their transcripts must match
  // byte for byte — and the sanitizer's output is in order, so the
  // incremental path must not have fallen back either.
  auto events = random_stream(31, 8 * kSecond);
  Rng rng(99);
  std::vector<of::ControlEvent> arrivals;
  arrivals.reserve(events.size() + events.size() / 10);
  for (std::size_t i = 0; i < events.size(); ++i) {
    arrivals.push_back(events[i]);
    if (rng.bernoulli(0.05) && i > 20) {
      // Re-emit an old event now: late past the horizon -> dropped.
      arrivals.push_back(events[i - 20]);
    }
    if (rng.bernoulli(0.05)) arrivals.push_back(events[i]);  // Duplicate.
  }
  const std::string oracle = monitor_transcripts(arrivals, false, true);
  ASSERT_FALSE(oracle.empty());
  EXPECT_EQ(monitor_transcripts(arrivals, true, true), oracle);
}

}  // namespace
}  // namespace flowdiff::core
