// MonitorManager: per-tenant shard lifecycle, demux determinism (pinned
// against the single-tenant golden corpus), round-boundary dispatch on a
// worker pool, fault isolation, idle eviction tombstones, and aggregate
// health.
#include "flowdiff/monitor_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/corpus.h"
#include "faults/corruptor.h"
#include "flowdiff/monitor.h"
#include "flowdiff/provenance.h"
#include "openflow/log_io.h"

namespace flowdiff::core {
namespace {

namespace fs = std::filesystem;

/// Loads one committed corpus case (its events and the monitor
/// configuration its header encodes) plus the golden transcript it pins.
struct CorpusFixture {
  explicit CorpusFixture(const std::string& stem) {
    const fs::path log = fs::path(FLOWDIFF_CORPUS_DIR) / (stem + ".log");
    const auto text = of::read_file(log.string());
    if (!text) ADD_FAILURE() << "unreadable: " << log;
    const auto parsed = exp::parse_corpus_case(*text);
    if (!parsed) ADD_FAILURE() << "unparseable: " << log;
    corpus_case = *parsed;
    fs::path golden_path = log;
    golden_path.replace_extension(".golden");
    const auto golden_text = of::read_file(golden_path.string());
    if (!golden_text) ADD_FAILURE() << "unreadable: " << golden_path;
    golden = *golden_text;
  }

  /// The corpus header lowered onto the MonitorOptions API surface.
  [[nodiscard]] MonitorOptions options() const {
    MonitorOptions opts;
    opts.window = corpus_case.config.window;
    opts.rolling_baseline = corpus_case.config.rolling_baseline;
    opts.sanitize = corpus_case.config.sanitize;
    if (corpus_case.config.sanitize) {
      opts.lateness = corpus_case.config.ingest.lateness_horizon;
    }
    opts.services = corpus_case.config.flowdiff.model.special_nodes;
    return opts;
  }

  exp::CorpusCase corpus_case;
  std::string golden;
};

std::string tenant_transcript(const MonitorManager& manager,
                              const std::string& tenant) {
  const auto snap = manager.snapshot(tenant);
  if (!snap) {
    ADD_FAILURE() << "no snapshot for tenant " << tenant;
    return {};
  }
  return render_monitor_transcript(*snap);
}

/// The tenant's retained provenance records, latency fields omitted.
std::string tenant_provenance(const MonitorManager& manager,
                              const std::string& tenant) {
  const auto snap = manager.snapshot(tenant);
  if (!snap) {
    ADD_FAILURE() << "no snapshot for tenant " << tenant;
    return {};
  }
  std::string out = "dropped=" + std::to_string(snap->provenance_dropped);
  for (const auto& record : snap->provenance) {
    out += '\n';
    out += render_provenance_text(record, /*with_latency=*/false);
  }
  return out;
}

/// Four corrupted tenant streams: the committed corrupted capture plus
/// three clean captures, each through its own seeded 5% corruptor.
std::vector<std::vector<of::ControlEvent>> corrupted_streams() {
  std::vector<std::vector<of::ControlEvent>> streams;
  streams.push_back(CorpusFixture("corrupted_slowdown").corpus_case.events);
  std::uint64_t seed = 11;
  for (const char* stem : {"steady", "slowdown", "unauthorized"}) {
    of::ControlLog log;
    for (const auto& event : CorpusFixture(stem).corpus_case.events) {
      log.append(event);
    }
    faults::StreamCorruptor corruptor(
        faults::CorruptorConfig::uniform(0.05, seed++));
    streams.push_back(corruptor.corrupt(log));
  }
  return streams;
}

struct Transcripts {
  std::vector<std::string> monitor;
  std::vector<std::string> provenance;
};

/// serve --by-controller's shape: the streams interleaved round-robin, one
/// feed() per event, tick() after every `tick_every` feeds (0 = never),
/// then stop_all().
Transcripts feed_per_event(const MonitorOptions& options, int workers,
                           const std::vector<std::vector<of::ControlEvent>>&
                               streams,
                           std::size_t tick_every) {
  ManagerConfig config;
  config.options = options;
  config.workers = workers;
  MonitorManager manager(config);
  std::vector<std::string> tenants;
  for (std::size_t t = 0; t < streams.size(); ++t) {
    tenants.push_back("ctrl" + std::to_string(t));
  }
  std::size_t fed = 0;
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (std::size_t t = 0; t < streams.size(); ++t) {
      if (i >= streams[t].size()) continue;
      any = true;
      EXPECT_TRUE(manager.feed(tenants[t], streams[t][i]));
      if (tick_every > 0 && ++fed % tick_every == 0) manager.tick();
    }
    if (!any) break;
  }
  manager.stop_all();
  Transcripts out;
  for (const auto& tenant : tenants) {
    out.monitor.push_back(tenant_transcript(manager, tenant));
    out.provenance.push_back(tenant_provenance(manager, tenant));
  }
  return out;
}

TEST(MonitorManager, SingleTenantMatchesGoldenTranscript) {
  const CorpusFixture corpus("steady");
  ManagerConfig config;
  config.options = corpus.options();
  MonitorManager manager(config);

  EXPECT_TRUE(manager.register_tenant("a"));
  EXPECT_FALSE(manager.register_tenant("a"));  // Already present.
  ASSERT_TRUE(manager.feed("a", corpus.corpus_case.events));
  manager.stop("a");

  EXPECT_EQ(tenant_transcript(manager, "a"), corpus.golden);
  const auto status = manager.status("a");
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, ShardState::kStopped);
  EXPECT_EQ(status->events, corpus.corpus_case.events.size());
  EXPECT_EQ(status->dropped, 0u);
}

TEST(MonitorManager, TwoTenantInterleavedDemuxMatchesSingleTenant) {
  // The acceptance bar for demux: two tenants' streams interleaved
  // event-by-event through one manager must each produce the transcript a
  // dedicated single-tenant monitor (the committed golden) produces.
  const CorpusFixture corpus("steady");
  ManagerConfig config;
  config.options = corpus.options();
  MonitorManager manager(config);

  for (const auto& event : corpus.corpus_case.events) {
    ASSERT_TRUE(manager.feed("a", event));
    ASSERT_TRUE(manager.feed("b", event));
  }
  manager.stop_all();

  EXPECT_EQ(tenant_transcript(manager, "a"), corpus.golden);
  EXPECT_EQ(tenant_transcript(manager, "b"), corpus.golden);
  EXPECT_EQ(manager.shard_count(), 2u);
}

TEST(MonitorManager, ParallelWorkersMatchSerialTranscripts) {
  // Shards scheduled on a real pool must not change any tenant's output:
  // per-tenant order is preserved by the single-in-flight-task rule.
  const CorpusFixture corpus("slowdown");
  ManagerConfig config;
  config.options = corpus.options();
  config.workers = 4;
  MonitorManager manager(config);

  const std::vector<std::string> tenants{"t0", "t1", "t2"};
  for (const auto& tenant : tenants) {
    ASSERT_TRUE(manager.feed(tenant, corpus.corpus_case.events));
  }
  manager.stop_all();
  for (const auto& tenant : tenants) {
    EXPECT_EQ(tenant_transcript(manager, tenant), corpus.golden)
        << tenant;
  }
}

TEST(MonitorManager, TickedPerEventFeedsOnWorkersMatchSerial) {
  // With workers, feed() only queues and tick() hands each round's queued
  // shards to the pool. However the rounds fall, every corrupted tenant's
  // transcript and provenance must match the inline workers-0 run.
  const CorpusFixture corpus("corrupted_slowdown");
  const auto streams = corrupted_streams();
  const Transcripts serial =
      feed_per_event(corpus.options(), 0, streams, /*tick_every=*/0);
  ASSERT_EQ(serial.monitor.front(), corpus.golden);
  bool recorded = false;  // Past the "dropped=" line: at least one record.
  for (const auto& text : serial.provenance) {
    recorded = recorded || text.find('\n') != std::string::npos;
  }
  ASSERT_TRUE(recorded) << "no tenant produced a provenance record";

  for (const std::size_t tick_every : {1u, 97u, 4000u, 20000u}) {
    const Transcripts pooled =
        feed_per_event(corpus.options(), 2, streams, tick_every);
    for (std::size_t t = 0; t < streams.size(); ++t) {
      EXPECT_EQ(pooled.monitor[t], serial.monitor[t])
          << "tenant " << t << " tick_every " << tick_every;
      EXPECT_EQ(pooled.provenance[t], serial.provenance[t])
          << "tenant " << t << " tick_every " << tick_every;
    }
  }
}

TEST(MonitorManager, TickHandsQueuedShardsToThePool) {
  // Below kFeedBatch a feed on a pooled manager only queues: no task
  // exists until tick() submits one, which then feeds the events with no
  // drain() behind it.
  const CorpusFixture corpus("steady");
  std::mutex mu;
  std::condition_variable cv;
  std::size_t seen = 0;
  ManagerConfig config;
  config.options = corpus.options();
  config.workers = 2;
  config.feed_hook = [&](const std::string&, const of::ControlEvent&) {
    const std::lock_guard<std::mutex> lock(mu);
    ++seen;
    cv.notify_all();
  };
  MonitorManager manager(config);
  constexpr std::size_t kEvents = 100;
  for (std::size_t i = 0; i < kEvents; ++i) {
    ASSERT_TRUE(manager.feed("a", corpus.corpus_case.events[i]));
  }
  {
    const std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(seen, 0u) << "events were fed before the round boundary";
  }
  manager.tick();
  {
    std::unique_lock<std::mutex> lock(mu);
    // The bound only matters if tick() failed to dispatch.
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(60),
                            [&] { return seen == kEvents; }))
        << seen << " of " << kEvents << " events fed after tick()";
  }
  manager.stop_all();
}

TEST(MonitorManager, UntickedFeedsStillReachDrainAndStopAll) {
  // A caller that never ticks: queues past kFeedBatch dispatch by
  // themselves, and drain()/stop_all() dispatch the remainder.
  const CorpusFixture corpus("steady");
  const auto& events = corpus.corpus_case.events;
  ASSERT_GT(events.size(), 2 * MonitorManager::kFeedBatch);
  ManagerConfig config;
  config.options = corpus.options();
  config.workers = 2;
  MonitorManager manager(config);
  ManagerConfig serial_config = config;
  serial_config.workers = 0;
  MonitorManager serial(serial_config);

  for (const auto& event : events) {
    ASSERT_TRUE(manager.feed("a", event));
    ASSERT_TRUE(manager.feed("b", event));
    ASSERT_TRUE(serial.feed("a", event));
  }
  // drain() leaves nothing queued: "a" has closed exactly the windows the
  // inline manager closed on the same events.
  manager.drain("a");
  ASSERT_GT(serial.status("a")->windows, 0u);
  EXPECT_EQ(manager.status("a")->windows, serial.status("a")->windows);

  manager.stop_all();
  EXPECT_EQ(tenant_transcript(manager, "a"), corpus.golden);
  EXPECT_EQ(tenant_transcript(manager, "b"), corpus.golden);
  EXPECT_EQ(manager.status("b")->events, events.size());
}

TEST(MonitorManager, FaultIsOneTenantsProblem) {
  const CorpusFixture corpus("steady");
  ManagerConfig config;
  config.options = corpus.options();
  std::atomic<int> bad_events{0};
  config.feed_hook = [&](const std::string& tenant,
                         const of::ControlEvent&) {
    if (tenant == "bad" && ++bad_events > 3) {
      throw std::runtime_error("injected shard failure");
    }
  };
  MonitorManager manager(config);

  ASSERT_TRUE(manager.feed("good", corpus.corpus_case.events));
  manager.feed("bad", corpus.corpus_case.events);  // Faults mid-feed.
  manager.drain("bad");

  const auto bad = manager.status("bad");
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->state, ShardState::kFaulted);
  EXPECT_FALSE(bad->healthy);
  EXPECT_NE(bad->fault.find("injected shard failure"), std::string::npos);
  // Later feeds into the faulted shard are dropped, not retried.
  EXPECT_FALSE(manager.feed("bad", corpus.corpus_case.events.front()));
  EXPECT_GT(manager.status("bad")->dropped, 0u);

  // The healthy tenant is untouched and still replays to its golden.
  manager.stop("good");
  EXPECT_EQ(tenant_transcript(manager, "good"), corpus.golden);

  const MonitorHealth aggregate = manager.aggregate_health();
  EXPECT_FALSE(aggregate.healthy);
  bool names_bad = false;
  for (const auto& reason : aggregate.reasons) {
    names_bad = names_bad || reason.find("bad") != std::string::npos;
  }
  EXPECT_TRUE(names_bad) << "aggregate health must name the faulted tenant";
}

TEST(MonitorManager, FaultCountsEveryUnfedEventAsDropped) {
  // The hook throws on the 4th event, in the middle of the first batch.
  // Every accepted event the monitor never saw (the one that threw, the
  // rest of its batch and the whole queue behind it) must be counted as
  // dropped, inline and on the pool alike.
  const CorpusFixture corpus("steady");
  const std::size_t total = corpus.corpus_case.events.size();
  ASSERT_GT(total, MonitorManager::kFeedBatch);
  for (const int workers : {0, 2}) {
    ManagerConfig config;
    config.options = corpus.options();
    config.workers = workers;
    std::atomic<int> seen{0};
    config.feed_hook = [&seen](const std::string&, const of::ControlEvent&) {
      if (++seen > 3) throw std::runtime_error("injected shard failure");
    };
    MonitorManager manager(config);
    manager.feed("bad", corpus.corpus_case.events);
    manager.drain("bad");

    const auto status = manager.status("bad");
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, ShardState::kFaulted) << "workers " << workers;
    EXPECT_EQ(status->events, total) << "workers " << workers;
    EXPECT_EQ(status->dropped, total - 3) << "workers " << workers;
  }
}

TEST(MonitorManager, IdleEvictionLeavesAReadableTombstone) {
  const CorpusFixture corpus("steady");
  ManagerConfig config;
  config.options = corpus.options();
  MonitorManager manager(config);

  ASSERT_TRUE(manager.feed("quiet", corpus.corpus_case.events));
  ASSERT_TRUE(
      manager.feed("chatty", corpus.corpus_case.events.front()));
  manager.tick();
  manager.tick();
  // "chatty" spoke this tick; "quiet" has been silent for 2 >= 2 ticks.
  ASSERT_TRUE(manager.feed("chatty", corpus.corpus_case.events.front()));
  const auto evicted = manager.evict_idle(2);
  ASSERT_EQ(evicted, std::vector<std::string>{"quiet"});

  const auto status = manager.status("quiet");
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, ShardState::kEvicted);
  // Eviction flushed the final window first: the tombstone transcript is
  // the full golden, answerable after the monitor itself is gone.
  EXPECT_EQ(tenant_transcript(manager, "quiet"), corpus.golden);
  EXPECT_TRUE(manager.health("quiet").has_value());
  EXPECT_FALSE(manager.feed("quiet", corpus.corpus_case.events.front()));

  // The surviving tenant keeps running.
  EXPECT_EQ(manager.status("chatty")->state, ShardState::kRunning);
  manager.stop_all();
}

TEST(MonitorManager, StopAllIsIdempotentAndKeepsResults) {
  const CorpusFixture corpus("steady");
  ManagerConfig config;
  config.options = corpus.options();
  MonitorManager manager(config);
  ASSERT_TRUE(manager.feed("a", corpus.corpus_case.events));
  manager.stop_all();
  manager.stop_all();  // Second SIGTERM must not wedge or clear results.
  EXPECT_EQ(tenant_transcript(manager, "a"), corpus.golden);
  EXPECT_EQ(manager.tenants(), std::vector<std::string>{"a"});
}

TEST(MonitorManager, AggregateHealthSumsShards) {
  const CorpusFixture steady("steady");
  const CorpusFixture slowdown("slowdown");
  ManagerConfig config;
  config.options = steady.options();
  MonitorManager manager(config);
  ASSERT_TRUE(manager.feed("clean", steady.corpus_case.events));
  ASSERT_TRUE(manager.feed("slow", slowdown.corpus_case.events));
  manager.stop_all();

  const auto clean = manager.status("clean");
  const auto slow = manager.status("slow");
  ASSERT_TRUE(clean && slow);
  EXPECT_EQ(clean->alarms, 0u);
  EXPECT_GT(slow->alarms, 0u) << "slowdown corpus must alarm";

  const MonitorHealth aggregate = manager.aggregate_health();
  EXPECT_EQ(aggregate.windows, clean->windows + slow->windows);
  EXPECT_EQ(aggregate.alarms, clean->alarms + slow->alarms);
}

}  // namespace
}  // namespace flowdiff::core
