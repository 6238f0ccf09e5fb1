// Incremental-vs-oracle property sweep: randomized admit/retire event
// streams (seeded, with duplicate timestamps, multi-hop flows, stats polls,
// empty windows, and sanitizer-suppressed arrivals) must produce
// IncrementalModeler finalizes that are bit-identical — via describe_model,
// the lossless hexfloat dump — to a from-scratch Modeler::build over the
// same window, after every window slide. Monitor-level runs must emit
// byte-identical transcripts with the incremental path on and off, on
// synthetic streams and on a corpus capture replayed through one rolling
// monitor. One state recycled through windows of every shape must match a
// fresh state, feed without allocating once warm, and release an outlier
// window's buffers; every corpus window must take the incremental path.
#include "flowdiff/incremental_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "experiment/corpus.h"
#include "experiment/lab_experiment.h"
#include "flowdiff/model.h"
#include "flowdiff/monitor.h"
#include "openflow/control_log.h"
#include "obs/metrics.h"
#include "openflow/log_io.h"
#include "util/rng.h"

// Heap allocations made by this thread while counting is armed. The test
// binary replaces every non-aligned global operator new and delete (over
// malloc/free, so sanitizer builds see matched pairs) and counts in new.
namespace {
thread_local bool g_count_allocs = false;
thread_local std::size_t g_allocs = 0;
}  // namespace

// Out of line, like operator delete below, so the compiler never pairs a
// malloc() it sees inlined at a use site with the operator delete call.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_count_allocs) ++g_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  if (g_count_allocs) ++g_allocs;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}

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
/// (stable), so feeding it in order is a valid monitor stream. Apps are
/// numbered from `first_app`, so streams with first apps three apart share
/// no host and no switch.
std::vector<of::ControlEvent> random_stream(std::uint64_t seed,
                                            SimTime duration,
                                            int first_app = 0) {
  Rng rng(seed);
  std::vector<of::ControlEvent> events;
  SimTime now = 0;
  std::uint16_t next_port = 20000;
  while (now < duration) {
    const int app = first_app + static_cast<int>(rng.uniform_int(0, 2));
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

/// True when every per-window container of `state` is empty. Ring buffers
/// may keep their capacity, but no ring may hold an entry.
void expect_cleared(const IncrementalWindowState& state) {
  EXPECT_FALSE(state.active);
  EXPECT_FALSE(state.fallback);
  EXPECT_EQ(state.events, 0u);
  EXPECT_TRUE(state.occurrences.empty());
  EXPECT_TRUE(state.hops.empty());
  EXPECT_EQ(state.open.size(), 0u);
  EXPECT_TRUE(state.hosts.empty());
  EXPECT_EQ(state.host_ids.size(), 0u);
  EXPECT_TRUE(state.edges.empty());
  EXPECT_EQ(state.edge_ids.size(), 0u);
  EXPECT_TRUE(state.triples.empty());
  EXPECT_EQ(state.triple_ids.size(), 0u);
  EXPECT_TRUE(state.dd_samples.empty());
  EXPECT_TRUE(state.poll_rates.empty());
  EXPECT_EQ(state.crt_response_ms.count(), 0u);
  for (const auto* rings : {&state.in_recent, &state.out_recent}) {
    for (const auto& ring : *rings) EXPECT_EQ(ring.size, 0u);
  }
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
  ASSERT_FALSE(state.dd_samples.empty()) << "stream formed no DD triple";
  ASSERT_FALSE(state.poll_rates.empty()) << "stream polled no stats";
  state.reset();
  expect_cleared(state);
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

/// One window whose DD pairing overflows the sample budget: 1001 flows
/// into one host, then 1000 flows out of it a millisecond later, each
/// pairing with every in-flow.
std::vector<of::ControlEvent> dd_cap_window() {
  std::vector<of::ControlEvent> events;
  std::uint16_t port = 1000;
  for (int i = 0; i < 1001; ++i) {
    events.push_back(pin(0, 1,
                         of::FlowKey{host(0, 0), host(0, 1), port++, 80,
                                     of::Proto::kTcp}));
  }
  for (int i = 0; i < 1000; ++i) {
    events.push_back(pin(kMillisecond, 1,
                         of::FlowKey{host(0, 1), host(0, 2), port++, 80,
                                     of::Proto::kTcp}));
  }
  return events;
}

/// One window of heavy fan-in on many hosts: 1024 flows into each of 32
/// hosts within 330 ms, so each of their recency rings grows to 1024
/// entries. No host both receives and sends, so no DD sample forms.
std::vector<of::ControlEvent> fan_in_window() {
  std::vector<of::ControlEvent> events;
  std::uint16_t port = 1000;
  for (int k = 0; k < 32 * 1024; ++k) {
    events.push_back(pin(SimTime{k} * 10, 1,
                         of::FlowKey{host(6, k % 8), host(5, k % 32), port++,
                                     80, of::Proto::kTcp}));
  }
  return events;
}

std::size_t ring_bytes(const IncrementalWindowState& state) {
  std::size_t total = 0;
  for (const auto* rings : {&state.in_recent, &state.out_recent}) {
    for (const auto& ring : *rings) {
      total += ring.buf.capacity() * sizeof(ring.buf[0]);
    }
  }
  return total;
}

std::vector<of::ControlEvent> shifted(std::vector<of::ControlEvent> events,
                                      SimDuration shift) {
  for (auto& event : events) event.ts += shift;
  return events;
}

TEST(IncrementalModel, RecycledStateMatchesFreshStateAndOracle) {
  // One state recycled through windows of very different shapes must
  // finalize exactly like a fresh state and like the from-scratch oracle
  // after every reset: an id, ring entry or aggregate that survives the
  // reset would show as a diverging model in a later window.
  ModelConfig config;
  config.app.min_edge_flows = 1;
  OraclePair o(config);
  struct Window {
    const char* name;
    std::vector<of::ControlEvent> events;
    bool falls_back;
  };
  const std::vector<Window> windows = {
      {"large", random_stream(41, 8 * kSecond), false},
      {"fan-in", shifted(fan_in_window(), 9 * kSecond), false},
      {"small", shifted(random_stream(42, kSecond / 2), 10 * kSecond), false},
      {"disjoint hosts", shifted(random_stream(43, 3 * kSecond, 3),
                                 20 * kSecond),
       false},
      {"dd cap", shifted(dd_cap_window(), 30 * kSecond), true},
      {"empty", {}, false},
      {"normal", shifted(random_stream(44, 2 * kSecond), 40 * kSecond),
       false},
  };
  IncrementalWindowState recycled;
  std::size_t fan_in_rings = 0;
  std::size_t small_rings = 0;
  std::size_t cap_footprint = 0;
  for (const Window& window : windows) {
    SCOPED_TRACE(window.name);
    IncrementalWindowState fresh;
    of::ControlLog log;
    for (const auto& event : window.events) {
      log.append(event);
      o.inc.feed(recycled, event);
      o.inc.feed(fresh, event);
    }
    if (window.events.empty() || window.falls_back) {
      EXPECT_FALSE(o.inc.ready(recycled));
      EXPECT_FALSE(o.inc.ready(fresh));
      EXPECT_EQ(recycled.fallback, window.falls_back);
      EXPECT_EQ(fresh.fallback, window.falls_back);
    } else {
      ASSERT_TRUE(o.inc.ready(recycled));
      ASSERT_TRUE(o.inc.ready(fresh));
      const std::string got = describe_model(o.inc.finalize(recycled));
      EXPECT_EQ(got, describe_model(o.inc.finalize(fresh)));
      EXPECT_EQ(got, describe_model(o.modeler.build(log)));
    }
    recycled.reset();
    expect_cleared(recycled);
    if (window.falls_back) cap_footprint = recycled.footprint_bytes();
    const std::string name = window.name;
    if (name == "fan-in") fan_in_rings = ring_bytes(recycled);
    if (name == "small") small_rings = ring_bytes(recycled);
  }
  // The fan-in window's rings (32 x 1024 entries, below the per-buffer
  // floor each) outlive its own reset, but not the next window, which has
  // fewer hosts and never reaches most of those ring ids.
  EXPECT_GT(fan_in_rings, std::size_t{512} << 10);
  EXPECT_LT(small_rings, std::size_t{64} << 10);
  // The capped window's buffers (~24 MB of DD samples) may outlive its own
  // reset, but not the small windows after it.
  EXPECT_GT(cap_footprint, std::size_t{16} << 20);
  EXPECT_LT(recycled.footprint_bytes(), std::size_t{1} << 20);
}

TEST(IncrementalModel, SteadyStateFeedDoesNotAllocate) {
  // After one warm-up window, a reset state already holds every buffer a
  // window of the same shape needs: feeding a time-shifted copy of it makes
  // no heap allocation at all.
  ModelConfig config;
  config.app.min_edge_flows = 1;
  OraclePair o(config);
  const auto events = random_stream(51, 4 * kSecond);
  IncrementalWindowState state;
  for (const auto& event : events) o.inc.feed(state, event);
  ASSERT_TRUE(o.inc.ready(state));
  ASSERT_FALSE(state.dd_samples.empty()) << "stream formed no DD triple";
  static_cast<void>(o.inc.finalize(state));
  state.reset();

  const auto again = shifted(events, 10 * kSecond);
  g_allocs = 0;
  g_count_allocs = true;
  for (const auto& event : again) o.inc.feed(state, event);
  g_count_allocs = false;
  EXPECT_EQ(g_allocs, 0u) << "feed allocated in a recycled state";
  ASSERT_TRUE(o.inc.ready(state));
  of::ControlLog log;
  for (const auto& event : again) log.append(event);
  EXPECT_EQ(describe_model(o.inc.finalize(state)),
            describe_model(o.modeler.build(log)));
}

TEST(IncrementalModel, CorpusWindowsTakeTheIncrementalPath) {
  // The goldens cannot tell a window the incremental path finalized from
  // one that fell back to the from-scratch oracle: both render the same
  // bytes. Pin how many windows of each kind every corpus replay makes.
  struct Counts {
    std::uint64_t windows;
    std::uint64_t fallbacks;
  };
  // Measured on the node-container window state this flat state replaced.
  const std::map<std::string, Counts> expected = {
      {"corrupted_slowdown", {4, 0}},
      {"fingerprint", {2, 0}},
      {"flood", {2, 0}},
      {"incast", {2, 0}},
      {"slowdown", {4, 0}},
      {"steady", {3, 0}},
      {"unauthorized", {2, 0}},
  };
  obs::Counter& windows =
      obs::Registry::global().counter("monitor.incremental.windows");
  obs::Counter& fallbacks =
      obs::Registry::global().counter("monitor.incremental.fallbacks");
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  std::map<std::string, Counts> seen;
  for (const auto& entry :
       std::filesystem::directory_iterator(FLOWDIFF_CORPUS_DIR)) {
    if (entry.path().extension() != ".log") continue;
    const auto text = of::read_file(entry.path().string());
    ASSERT_TRUE(text.has_value()) << entry.path();
    const auto corpus_case = exp::parse_corpus_case(*text);
    ASSERT_TRUE(corpus_case.has_value()) << entry.path();
    const std::uint64_t windows_before = windows.value();
    const std::uint64_t fallbacks_before = fallbacks.value();
    static_cast<void>(exp::replay_corpus_case(*corpus_case));
    seen[entry.path().stem().string()] = {
        windows.value() - windows_before,
        fallbacks.value() - fallbacks_before};
  }
  obs::set_enabled(was_enabled);
  ASSERT_EQ(seen.size(), expected.size());
  for (const auto& [stem, want] : expected) {
    SCOPED_TRACE(stem);
    ASSERT_TRUE(seen.contains(stem));
    EXPECT_EQ(seen[stem].windows, want.windows);
    EXPECT_EQ(seen[stem].fallbacks, want.fallbacks);
  }
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

TEST(IncrementalModel, SteadyCorpusRepeatMatchesOracleMode) {
  // The long-lived steady state: steady.log replayed twice through one
  // rolling monitor, the second copy shifted past the first copy's last
  // window, so clean windows keep re-baselining across the seam.
  const auto text =
      of::read_file(std::string(FLOWDIFF_CORPUS_DIR) + "/steady.log");
  ASSERT_TRUE(text.has_value()) << "missing steady.log in "
                                << FLOWDIFF_CORPUS_DIR;
  const auto corpus_case = exp::parse_corpus_case(*text);
  ASSERT_TRUE(corpus_case.has_value());
  const auto& events = corpus_case->events;
  ASSERT_FALSE(events.empty());
  const SimDuration window = corpus_case->config.window;
  const SimTime span = events.back().ts - events.front().ts;
  const SimTime shift = (span / window + 2) * window;
  std::vector<of::ControlEvent> stream = events;
  for (of::ControlEvent event : events) {
    event.ts += shift;
    stream.push_back(std::move(event));
  }

  const FlowDiffConfig& flowdiff = corpus_case->config.flowdiff;
  const std::string oracle =
      monitor_transcripts(stream, false, false, window, flowdiff);
  ASSERT_FALSE(oracle.empty());
  EXPECT_EQ(monitor_transcripts(stream, true, false, window, flowdiff),
            oracle);
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
