// FlowDiff::model feeds the time-sorted log through IncrementalModeler and
// falls back to the from-scratch core::Modeler only when the incremental
// path cannot represent the log exactly. Either way the facade's model must
// be bit-identical — via describe_model, the lossless hexfloat dump — to
// modeler().build on the same log: on every corpus capture (whole and in
// 40 s slices), on Fig. 13 segments, at parallelism 0 and 3, on a log built
// out of order, and on the fallback inputs (an unsupported config, a DD
// sample-budget overflow). The corpus and Fig. 13 inputs must also take the
// incremental path, so the offline speedup cannot silently fall through to
// the fallback.
#include "flowdiff/flowdiff.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "experiment/corpus.h"
#include "experiment/scalability.h"
#include "flowdiff/incremental_model.h"
#include "flowdiff/model.h"
#include "obs/metrics.h"
#include "openflow/control_log.h"
#include "openflow/log_io.h"

namespace flowdiff::core {
namespace {

/// Turns obs on for the test's lifetime: the finalize counter only counts
/// while it is enabled.
class ObsOn {
 public:
  ObsOn() : was_(obs::enabled()) { obs::set_enabled(true); }
  ~ObsOn() { obs::set_enabled(was_); }
  ObsOn(const ObsOn&) = delete;
  ObsOn& operator=(const ObsOn&) = delete;

 private:
  bool was_;
};

/// True when a fresh IncrementalModeler built like the facade's, fed the
/// log's sorted events, can finalize them.
bool incremental_ready(const FlowDiff& flowdiff, const of::ControlLog& log) {
  const IncrementalModeler inc(flowdiff.modeler().config(),
                               flowdiff.modeler().shared_executor());
  IncrementalWindowState state;
  for (const auto& event : log.events()) inc.feed(state, event);
  return inc.ready(state);
}

/// Checks facade == oracle on `log` at parallelism 0 and 3, and that the
/// facade took the incremental path exactly when `want_incremental`.
void expect_identity(FlowDiffConfig config, const of::ControlLog& log,
                     bool want_incremental) {
  static obs::Counter& finalizes =
      obs::Registry::global().counter("model.incremental_finalizes");
  for (const int parallelism : {0, 3}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    config.parallelism = parallelism;
    const FlowDiff flowdiff(config);
    const std::uint64_t before = finalizes.value();
    const std::string got = describe_model(flowdiff.model(log));
    EXPECT_EQ(finalizes.value() - before, want_incremental ? 1u : 0u);
    EXPECT_EQ(got, describe_model(flowdiff.modeler().build(log)));
    EXPECT_EQ(incremental_ready(flowdiff, log), want_incremental);
  }
}

std::vector<exp::CorpusCase> corpus_cases() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(FLOWDIFF_CORPUS_DIR)) {
    if (entry.path().extension() == ".log") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<exp::CorpusCase> cases;
  for (const auto& path : paths) {
    const auto text = of::read_file(path.string());
    EXPECT_TRUE(text.has_value()) << path;
    if (!text) continue;
    auto corpus_case = exp::parse_corpus_case(*text);
    EXPECT_TRUE(corpus_case.has_value()) << path;
    if (corpus_case) cases.push_back(std::move(*corpus_case));
  }
  return cases;
}

TEST(FacadeIdentity, CorpusLogsWholeAndSlicedMatchTheOracle) {
  const ObsOn obs_on;
  const auto cases = corpus_cases();
  ASSERT_EQ(cases.size(), 7u);
  int slices = 0;
  for (const auto& corpus_case : cases) {
    // File order is arrival order; a corrupted capture's disorder is
    // sorted away by the log, as `flowdiff diff` loads it.
    const of::ControlLog log(corpus_case.events);
    SCOPED_TRACE("corpus log of " + std::to_string(log.size()) + " events");
    expect_identity(corpus_case.config.flowdiff, log, true);
    constexpr SimDuration kSlice = 40 * kSecond;
    for (SimTime begin = log.begin_time(); begin <= log.end_time();
         begin += kSlice) {
      const of::ControlLog slice = log.slice(begin, begin + kSlice);
      SCOPED_TRACE("slice at " + std::to_string(begin));
      expect_identity(corpus_case.config.flowdiff, slice, !slice.empty());
      ++slices;
    }
  }
  EXPECT_GE(slices, 14);
}

TEST(FacadeIdentity, ScalabilitySegmentsMatchTheOracle) {
  const ObsOn obs_on;
  constexpr SimDuration kSegment = 20 * kSecond;
  for (const std::uint64_t seed : {42u, 1013u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    exp::ScalabilityConfig config;
    config.app_count = 5;
    config.duration = 2 * kSegment;
    config.seed = seed;
    const of::ControlLog capture = exp::capture_scalability_log(config);
    for (SimTime begin = 0; begin < config.duration; begin += kSegment) {
      const of::ControlLog segment = capture.slice(begin, begin + kSegment);
      ASSERT_GT(segment.size(), 1000u);
      expect_identity(FlowDiffConfig{}, segment, true);
    }
  }
}

TEST(FacadeIdentity, LogBuiltOutOfOrderMatchesTheOracle) {
  const ObsOn obs_on;
  exp::ScalabilityConfig config;
  config.app_count = 3;
  config.duration = 10 * kSecond;
  const of::ControlLog capture = exp::capture_scalability_log(config);
  // Later half first, cut where the timestamp strictly rises, so the
  // log's stable sort restores the capture's order exactly.
  const auto& events = capture.events();
  std::size_t cut = events.size() / 2;
  while (cut + 1 < events.size() && events[cut - 1].ts == events[cut].ts) {
    ++cut;
  }
  of::ControlLog rotated;
  for (std::size_t i = 0; i < events.size(); ++i) {
    rotated.append(events[(cut + i) % events.size()]);
  }
  expect_identity(FlowDiffConfig{}, rotated, true);
  const FlowDiff flowdiff{FlowDiffConfig{}};
  EXPECT_EQ(describe_model(flowdiff.model(rotated)),
            describe_model(flowdiff.model(capture)));
}

TEST(FacadeIdentity, UnsupportedConfigFallsBackToTheOracle) {
  const ObsOn obs_on;
  const auto cases = corpus_cases();
  ASSERT_FALSE(cases.empty());
  FlowDiffConfig config = cases.front().config.flowdiff;
  config.model.app.min_edge_flows = 0;
  expect_identity(config, of::ControlLog(cases.front().events), false);
}

TEST(FacadeIdentity, DdSampleBudgetOverflowFallsBackToTheOracle) {
  const ObsOn obs_on;
  // 1001 flows into one host, then 1000 flows out of it a millisecond
  // later: each out-flow pairs with every in-flow, past the 1M budget.
  of::ControlLog log;
  std::uint16_t port = 1000;
  const auto add = [&](SimTime ts, Ipv4 src, Ipv4 dst) {
    of::PacketIn msg;
    msg.sw = SwitchId{1};
    msg.in_port = PortId{1};
    msg.key = of::FlowKey{src, dst, port++, 80, of::Proto::kTcp};
    log.append(of::ControlEvent{ts, ControllerId{0}, msg});
  };
  for (int i = 0; i < 1001; ++i) add(0, Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2));
  for (int i = 0; i < 1000; ++i) {
    add(kMillisecond, Ipv4(10, 0, 0, 2), Ipv4(10, 0, 0, 3));
  }
  expect_identity(FlowDiffConfig{}, log, false);
}

TEST(FacadeIdentity, EmptyLogFallsBackToTheOracle) {
  const ObsOn obs_on;
  expect_identity(FlowDiffConfig{}, of::ControlLog{}, false);
}

}  // namespace
}  // namespace flowdiff::core
