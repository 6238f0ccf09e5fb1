// Determinism of the parallel modeling engine: the Fig. 13 multi-app
// workload modeled with 0, 1, 2, and 8 workers, by the from-scratch build
// and by the facade's incremental path, must produce bit-identical
// behavior models (observed through DiffReport::render(), which serializes
// every signature difference), and a monitor must emit the same
// alarm/audit/provenance sequence at any worker count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "experiment/scalability.h"
#include "flowdiff/flowdiff.h"
#include "flowdiff/monitor.h"
#include "flowdiff/telemetry.h"
#include "http_test_util.h"

namespace flowdiff::core {
namespace {

/// Two captures of the same multi-app data center under different seeds:
/// enough behavioral drift that the diff report exercises every signature
/// family's rendering, so a single flipped bit in any model shows up.
struct Scenario {
  Scenario() {
    exp::ScalabilityConfig config;
    config.app_count = 4;
    config.duration = 6 * kSecond;
    config.seed = 7;
    baseline = exp::capture_scalability_log(config);
    config.seed = 11;
    current = exp::capture_scalability_log(config);
  }
  of::ControlLog baseline;
  of::ControlLog current;
};

Scenario& scenario() {
  static Scenario s;  // The simulation dominates test time; run it once.
  return s;
}

/// The scenario's diff report with both captures modeled on `workers`
/// workers, by the from-scratch `Modeler::build` (`oracle`) or by
/// `FlowDiff::model` (the incremental path).
std::string render_diff_with_workers(int workers, bool oracle = false) {
  FlowDiffConfig config;
  config.parallelism = workers;
  const FlowDiff flowdiff(config);
  const auto model = [&](const of::ControlLog& log) {
    return oracle ? flowdiff.modeler().build(log) : flowdiff.model(log);
  };
  return flowdiff.diff(model(scenario().baseline), model(scenario().current))
      .render();
}

TEST(ParallelModel, DiffReportBitIdenticalAcrossWorkerCounts) {
  const std::string serial = render_diff_with_workers(0, /*oracle=*/true);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(render_diff_with_workers(0), serial)
      << "the facade diverged from the serial oracle build";
  for (const int workers : {1, 2, 8}) {
    EXPECT_EQ(render_diff_with_workers(workers, /*oracle=*/true), serial)
        << "workers=" << workers << " diverged from the serial build";
    EXPECT_EQ(render_diff_with_workers(workers), serial)
        << "workers=" << workers << " facade diverged from the serial build";
  }
}

TEST(ParallelModel, RepeatedParallelBuildsAreStable) {
  // Flaky scheduling would show up as run-to-run divergence at a fixed
  // worker count; three rounds at the widest pool is a cheap canary.
  const std::string first = render_diff_with_workers(8);
  EXPECT_EQ(render_diff_with_workers(8), first);
  EXPECT_EQ(render_diff_with_workers(8), first);
}

/// `incremental = false` forces every window through the from-scratch
/// model build (the oracle mode the identity tests compare against).
MonitorConfig scenario_monitor_config(int workers, bool sanitize = false,
                                      bool incremental = true) {
  MonitorConfig config;
  config.flowdiff.parallelism = workers;
  config.window = kSecond;
  config.rolling_baseline = true;
  config.sample_metrics = false;
  config.sanitize = sanitize;
  config.incremental = incremental;
  return config;
}

/// One alarm/audit transcript of a finished monitor, for sequence
/// comparison.
std::vector<std::string> transcript_of(const SlidingMonitor& monitor) {
  std::vector<std::string> transcript;
  for (const auto& audit : monitor.audits()) {
    transcript.push_back(std::to_string(audit.index) + "|" +
                         std::to_string(audit.alarmed) + "|" +
                         std::to_string(audit.rebaselined) + "|" +
                         audit.decision);
  }
  for (const auto& alarm : monitor.alarms()) {
    transcript.push_back("alarm@" + std::to_string(alarm.window_begin) +
                         "\n" + alarm.report.render());
  }
  // Provenance records are part of the determinism contract too: same
  // ids, contributors, scores, and verdicts at any worker count (stage
  // latencies are wall-clock, so the transcript renderer omits them).
  transcript.push_back(render_provenance_transcript(monitor));
  return transcript;
}

std::vector<std::string> monitor_transcript(int workers,
                                            bool sanitize = false,
                                            bool incremental = true) {
  SlidingMonitor monitor(
      scenario_monitor_config(workers, sanitize, incremental));
  monitor.feed(scenario().current);
  monitor.flush();
  return transcript_of(monitor);
}

TEST(ParallelModel, IncrementalMatchesFromScratchOracle) {
  // The incremental-vs-oracle identity contract, end to end: delta-
  // maintained window modeling must reproduce the from-scratch build's
  // DiffReports, audits, and provenance byte for byte at every worker
  // count, with and without the ingest sanitizer.
  const std::vector<std::string> oracle =
      monitor_transcript(0, /*sanitize=*/false, /*incremental=*/false);
  ASSERT_FALSE(oracle.empty());
  for (const bool sanitize : {false, true}) {
    for (const int workers : {0, 2}) {
      EXPECT_EQ(monitor_transcript(workers, sanitize, /*incremental=*/true),
                oracle)
          << "incremental diverged from oracle at workers=" << workers
          << " sanitize=" << sanitize;
    }
  }
}

TEST(ParallelModel, SanitizerOnCleanStreamIsInvariant) {
  // Clean-log invariance: routing an uncorrupted capture through the
  // ingest sanitizer must not change a single byte of any alarm, audit, or
  // report, at any worker count.
  const std::vector<std::string> plain = monitor_transcript(0, false);
  ASSERT_FALSE(plain.empty());
  for (const int workers : {0, 2, 8}) {
    EXPECT_EQ(monitor_transcript(workers, true), plain)
        << "sanitize=on workers=" << workers;
  }
}

TEST(ParallelModel, ScrapeUnderLoadKeepsTranscriptIdentical) {
  // The telemetry plane's contract: a scraper hammering every endpoint
  // while windows commit must never perturb (or tear) the results — the
  // transcript stays bit-identical to an unobserved run at every worker
  // count.
  const std::vector<std::string> plain = monitor_transcript(0);
  ASSERT_FALSE(plain.empty());

  for (const int workers : {0, 2}) {
    SlidingMonitor monitor(scenario_monitor_config(workers));

    TelemetryPlane plane;
    plane.attach(&monitor);
    ASSERT_TRUE(plane.start()) << plane.last_error();
    std::atomic<bool> stop{false};
    std::atomic<int> scrapes{0};
    std::thread scraper([&] {
      const char* targets[] = {"/metrics", "/healthz", "/audits", "/report",
                               "/provenance"};
      std::size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto result =
            flowdiff::testing::http_get(plane.port(), targets[i++ % 5]);
        if (result) scrapes.fetch_add(1, std::memory_order_relaxed);
      }
    });

    // Two slices with a completed scrape between them, so at least one
    // request provably lands while windows are committing: on a loaded
    // host a single feed could finish before the scraper's first request.
    // The deadline only matters if the plane never answers.
    const auto& events = scenario().current.events();
    const auto half =
        events.begin() + static_cast<std::ptrdiff_t>(events.size() / 2);
    monitor.feed(std::vector<of::ControlEvent>(events.begin(), half));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (scrapes.load() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    monitor.feed(std::vector<of::ControlEvent>(half, events.end()));
    monitor.flush();
    stop.store(true, std::memory_order_relaxed);
    scraper.join();
    plane.stop();
    EXPECT_GT(scrapes.load(), 0)
        << "scraper never completed a request; the test lost its point";
    EXPECT_EQ(transcript_of(monitor), plain)
        << "workers=" << workers << " diverged under scrape load";
  }
}

TEST(ParallelModel, SanitizedTranscriptRenderIsInvariant) {
  // Same invariance through the corpus renderer (the exact text the
  // golden-trace corpus diffs byte for byte).
  const auto transcript = [](bool sanitize) {
    SlidingMonitor monitor(scenario_monitor_config(0, sanitize));
    monitor.feed(scenario().current);
    monitor.flush();
    return render_monitor_transcript(monitor);
  };
  const std::string plain = transcript(false);
  EXPECT_FALSE(plain.empty());
  EXPECT_EQ(transcript(true), plain);
}

}  // namespace
}  // namespace flowdiff::core
