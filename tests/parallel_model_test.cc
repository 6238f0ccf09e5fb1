// Determinism of the parallel modeling engine: the Fig. 13 multi-app
// workload modeled with 0, 1, 2, and 8 workers must produce bit-identical
// behavior models (observed through DiffReport::render(), which serializes
// every signature difference), and the pipelined monitor must emit the
// same alarm/audit sequence as the synchronous one.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
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

std::string render_diff_with_workers(int workers) {
  FlowDiffConfig config;
  config.parallelism = workers;
  const FlowDiff flowdiff(config);
  const BehaviorModel baseline = flowdiff.model(scenario().baseline);
  const BehaviorModel current = flowdiff.model(scenario().current);
  return flowdiff.diff(baseline, current).render();
}

TEST(ParallelModel, DiffReportBitIdenticalAcrossWorkerCounts) {
  const std::string serial = render_diff_with_workers(0);
  EXPECT_FALSE(serial.empty());
  for (const int workers : {1, 2, 8}) {
    EXPECT_EQ(render_diff_with_workers(workers), serial)
        << "workers=" << workers << " diverged from the serial build";
  }
}

TEST(ParallelModel, RepeatedParallelBuildsAreStable) {
  // Flaky scheduling would show up as run-to-run divergence at a fixed
  // worker count; three rounds at the widest pool is a cheap canary.
  const std::string first = render_diff_with_workers(8);
  EXPECT_EQ(render_diff_with_workers(8), first);
  EXPECT_EQ(render_diff_with_workers(8), first);
}

/// One alarm/audit transcript of a monitor run, for sequence comparison.
/// `incremental = false` forces every window through the from-scratch
/// model build (the oracle mode the identity tests compare against).
std::vector<std::string> monitor_transcript(std::size_t pipeline_depth,
                                            int workers,
                                            bool sanitize = false,
                                            bool incremental = true) {
  MonitorConfig config;
  config.flowdiff.parallelism = workers;
  config.window = kSecond;
  config.rolling_baseline = true;
  config.pipeline_depth = pipeline_depth;
  config.sample_metrics = false;
  config.sanitize = sanitize;
  config.incremental = incremental;
  auto monitor = std::make_unique<SlidingMonitor>(config);
  monitor->feed(scenario().current);
  monitor->flush();

  std::vector<std::string> transcript;
  for (const auto& audit : monitor->audits()) {
    transcript.push_back(std::to_string(audit.index) + "|" +
                         std::to_string(audit.alarmed) + "|" +
                         std::to_string(audit.rebaselined) + "|" +
                         audit.decision);
  }
  for (const auto& alarm : monitor->alarms()) {
    transcript.push_back("alarm@" + std::to_string(alarm.window_begin) +
                         "\n" + alarm.report.render());
  }
  // Provenance records are part of the determinism contract too: same
  // ids, contributors, scores, and verdicts at any worker count or
  // pipeline depth (stage latencies are wall-clock, so the transcript
  // renderer omits them).
  transcript.push_back(render_provenance_transcript(*monitor));
  return transcript;
}

TEST(ParallelModel, PipelinedMonitorMatchesSynchronousSequence) {
  const std::vector<std::string> sync = monitor_transcript(0, 0);
  ASSERT_FALSE(sync.empty());
  for (const std::size_t depth : {std::size_t{1}, std::size_t{4}}) {
    for (const int workers : {0, 2}) {
      EXPECT_EQ(monitor_transcript(depth, workers), sync)
          << "pipeline_depth=" << depth << " workers=" << workers;
    }
  }
}

TEST(ParallelModel, IncrementalMatchesFromScratchOracle) {
  // The incremental-vs-oracle identity contract, end to end: delta-
  // maintained window modeling must reproduce the from-scratch build's
  // DiffReports, audits, and provenance byte for byte at every worker
  // count and pipeline depth, with and without the ingest sanitizer.
  const std::vector<std::string> oracle =
      monitor_transcript(0, 0, /*sanitize=*/false, /*incremental=*/false);
  ASSERT_FALSE(oracle.empty());
  for (const bool sanitize : {false, true}) {
    for (const std::size_t depth : {std::size_t{0}, std::size_t{1},
                                    std::size_t{4}}) {
      for (const int workers : {0, 2}) {
        EXPECT_EQ(monitor_transcript(depth, workers, sanitize,
                                     /*incremental=*/true),
                  oracle)
            << "incremental diverged from oracle at pipeline_depth=" << depth
            << " workers=" << workers << " sanitize=" << sanitize;
      }
    }
  }
}

TEST(ParallelModel, SanitizerOnCleanStreamIsInvariant) {
  // Clean-log invariance: routing an uncorrupted capture through the
  // ingest sanitizer must not change a single byte of any alarm, audit, or
  // report, at any worker count or pipeline depth.
  const std::vector<std::string> plain = monitor_transcript(0, 0, false);
  ASSERT_FALSE(plain.empty());
  for (const std::size_t depth : {std::size_t{0}, std::size_t{1},
                                  std::size_t{4}}) {
    for (const int workers : {0, 2, 8}) {
      EXPECT_EQ(monitor_transcript(depth, workers, true), plain)
          << "sanitize=on pipeline_depth=" << depth
          << " workers=" << workers;
    }
  }
}

TEST(ParallelModel, ScrapeUnderLoadKeepsTranscriptIdentical) {
  // The telemetry plane's contract: a scraper hammering every endpoint
  // while windows commit must never perturb (or tear) the results — the
  // transcript stays bit-identical to an unobserved run at every pipeline
  // depth and worker count.
  const std::vector<std::string> plain = monitor_transcript(0, 0);
  ASSERT_FALSE(plain.empty());

  for (const std::size_t depth : {std::size_t{0}, std::size_t{2}}) {
    for (const int workers : {0, 2}) {
      MonitorConfig config;
      config.flowdiff.parallelism = workers;
      config.window = kSecond;
      config.rolling_baseline = true;
      config.pipeline_depth = depth;
      config.sample_metrics = false;
      auto monitor = std::make_unique<SlidingMonitor>(config);

      TelemetryPlane plane;
      plane.attach(monitor.get());
      ASSERT_TRUE(plane.start()) << plane.last_error();
      std::atomic<bool> stop{false};
      std::atomic<int> scrapes{0};
      std::thread scraper([&] {
        const char* targets[] = {"/metrics", "/healthz", "/audits",
                                 "/report", "/provenance"};
        std::size_t i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const auto result = flowdiff::testing::http_get(
              plane.port(), targets[i++ % 5]);
          if (result) scrapes.fetch_add(1, std::memory_order_relaxed);
        }
      });

      // Two slices with a completed scrape between them, so at least one
      // request provably lands while windows are committing: on a loaded
      // host a single feed could finish before the scraper's first
      // request. The deadline only matters if the plane never answers.
      const auto& events = scenario().current.events();
      const auto half =
          events.begin() + static_cast<std::ptrdiff_t>(events.size() / 2);
      monitor->feed(std::vector<of::ControlEvent>(events.begin(), half));
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(60);
      while (scrapes.load() == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      monitor->feed(std::vector<of::ControlEvent>(half, events.end()));
      monitor->flush();
      stop.store(true, std::memory_order_relaxed);
      scraper.join();
      plane.stop();
      EXPECT_GT(scrapes.load(), 0)
          << "scraper never completed a request; the test lost its point";

      std::vector<std::string> transcript;
      for (const auto& audit : monitor->audits()) {
        transcript.push_back(std::to_string(audit.index) + "|" +
                             std::to_string(audit.alarmed) + "|" +
                             std::to_string(audit.rebaselined) + "|" +
                             audit.decision);
      }
      for (const auto& alarm : monitor->alarms()) {
        transcript.push_back("alarm@" + std::to_string(alarm.window_begin) +
                             "\n" + alarm.report.render());
      }
      transcript.push_back(render_provenance_transcript(*monitor));
      EXPECT_EQ(transcript, plain)
          << "pipeline_depth=" << depth << " workers=" << workers
          << " diverged under scrape load";
    }
  }
}

TEST(ParallelModel, SanitizedTranscriptRenderIsInvariant) {
  // Same invariance through the corpus renderer (the exact text the
  // golden-trace corpus diffs byte for byte).
  const auto transcript = [](bool sanitize) {
    MonitorConfig config;
    config.window = kSecond;
    config.rolling_baseline = true;
    config.sample_metrics = false;
    config.sanitize = sanitize;
    SlidingMonitor monitor(config);
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
