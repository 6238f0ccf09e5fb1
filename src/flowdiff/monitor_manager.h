// MonitorManager: the multi-tenant shard registry behind `flowdiff serve`.
//
// A daemon watches many controllers at once — one control-log stream per
// tenant (a controller, a slice, a customer), each with its own baseline,
// windows, and alarm history. The manager owns one SlidingMonitor shard
// per tenant and the scheduling between them:
//
//   * feed(tenant, event) routes events to the tenant's shard, creating it
//     on first contact from the manager's shard option template. A shard
//     is fed by at most one thread at a time, so per-tenant order (the
//     thing windowing depends on) is preserved at any worker count. With
//     workers > 0, events queue per shard and at most one executor task
//     per shard feeds them, while distinct tenants proceed in parallel on
//     the manager's util::Executor pool.
//   * With workers > 0, tick() is the round boundary that hands queued
//     work to the pool: feed() only queues the event and lists the shard
//     as ready, and tick() hands the round's ready shards to at most
//     `workers` tasks, each feeding the next unserved shard until none is
//     left. A shard whose queue reaches kFeedBatch events dispatches at
//     once without waiting for the tick, and drain()/stop()/stop_all()/
//     eviction dispatch whatever is still queued before waiting. So a
//     caller that never ticks still sees every event through drain() or
//     stop_all(); one that ticks once per poll round (the serve loop)
//     pays a few executor tasks per round instead of one per queue
//     transition.
//   * Shard faults are isolated: an exception escaping one shard's feed
//     marks that shard kFaulted (with the message retained) and drops its
//     backlog, counting every accepted event the monitor never saw as
//     dropped; every other tenant keeps running, and the aggregate health
//     turns unhealthy naming the faulted tenant.
//   * Idle eviction reclaims memory for tenants that stopped talking: the
//     serve loop advances tick() once per poll round, and evict_idle(n)
//     retires shards not fed for n ticks — flushing the final window and
//     keeping a tombstone (final snapshot, health, transcript) so the
//     telemetry plane can still answer for the departed tenant.
//   * stop_all() is the SIGTERM path: drain every queue, flush every
//     shard's final partial window, and leave the results readable.
//
// With ManagerConfig::workers == 0 there is no queue: feed() hands the
// caller's events straight to the shard's monitor on the feeding thread,
// without copying them — every feed() is processed before it returns,
// fully deterministic, and the mode the demux golden tests pin. The same
// span-feeding function (feed_span) serves both modes. This pool is the
// only one in the monitoring path: a shard models, diffs, and commits each
// window on whichever thread feeds it (see SlidingMonitor), and its model
// builds run serially there.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "flowdiff/monitor.h"
#include "flowdiff/monitor_options.h"
#include "util/executor.h"

namespace flowdiff::core {

enum class ShardState {
  kRunning,  ///< Accepting and processing events.
  kStopped,  ///< stop()/stop_all() flushed it; results readable, feeds dropped.
  kFaulted,  ///< An exception escaped its feed path; see ShardStatus::fault.
  kEvicted,  ///< Idle-evicted; monitor freed, tombstone results readable.
};

[[nodiscard]] const char* to_string(ShardState state);

/// One row of the registry as the telemetry plane reports it.
struct ShardStatus {
  std::string tenant;
  ShardState state = ShardState::kRunning;
  std::uint64_t events = 0;   ///< Events accepted into the shard.
  std::uint64_t dropped = 0;  ///< Events dropped (fed after stop/fault/evict).
  std::size_t windows = 0;
  std::size_t alarms = 0;
  bool healthy = true;
  std::string fault;  ///< Diagnostic for kFaulted shards.
};

struct ManagerConfig {
  /// Shard option template: every tenant's monitor is built from this.
  MonitorOptions options;
  /// Size of the cross-tenant pool that feeds the shards (0 = inline on
  /// the feeding thread).
  int workers = 0;
  /// Test seam: runs inside the shard task for every event, before the
  /// monitor sees it. An exception thrown here exercises the same fault
  /// path a throwing monitor would.
  std::function<void(const std::string& tenant, const of::ControlEvent&)>
      feed_hook;
};

class MonitorManager {
 public:
  /// Queue depth at which a shard dispatches without waiting for tick(),
  /// and the most events one shard task feeds per queue grab.
  static constexpr std::size_t kFeedBatch = 4096;

  explicit MonitorManager(ManagerConfig config);
  ~MonitorManager();

  MonitorManager(const MonitorManager&) = delete;
  MonitorManager& operator=(const MonitorManager&) = delete;

  /// Creates the tenant's shard if absent. True if created. feed() calls
  /// this implicitly; explicit registration exists so serve can announce
  /// configured tenants before their first event.
  bool register_tenant(const std::string& tenant);

  /// Routes one event (or a batch, preserving order) to the tenant's
  /// shard. Returns false if the shard exists but no longer accepts
  /// (stopped / faulted / evicted) — the event is counted as dropped.
  /// With workers > 0 the events are processed after the next tick() (or
  /// at once if the shard's queue reached kFeedBatch); see the header.
  bool feed(const std::string& tenant, const of::ControlEvent& event);
  bool feed(const std::string& tenant,
            const std::vector<of::ControlEvent>& events);

  /// Blocks until the tenant's queued events were fed (not until windows
  /// closed — use stop() for end-of-stream). No-op for unknown tenants.
  void drain(const std::string& tenant);

  /// Drain + flush the shard's final partial window, then mark kStopped.
  /// Results stay readable; later feeds are dropped.
  void stop(const std::string& tenant);

  /// SIGTERM path: stop every running shard (deterministic tenant order).
  void stop_all();

  /// Ends a round: hands every shard that queued events since the last
  /// round to the pool (workers > 0), then advances the idle clock. The
  /// serve loop calls this once per poll round. Returns the new tick.
  std::uint64_t tick();

  /// Evicts running shards not fed for >= idle_ticks ticks: drains,
  /// flushes the final window, snapshots results into a tombstone, and
  /// frees the monitor. Returns the tenants evicted (sorted).
  std::vector<std::string> evict_idle(std::uint64_t idle_ticks);

  /// Registered tenants, sorted; includes stopped/faulted/evicted ones.
  [[nodiscard]] std::vector<std::string> tenants() const;
  [[nodiscard]] std::optional<ShardStatus> status(
      const std::string& tenant) const;
  [[nodiscard]] std::vector<ShardStatus> statuses() const;

  /// Per-tenant results; nullopt for unknown tenants. For live shards
  /// these copy under the monitor's commit lock (safe any time); for
  /// evicted shards they serve the tombstone.
  [[nodiscard]] std::optional<MonitorSnapshot> snapshot(
      const std::string& tenant) const;
  [[nodiscard]] std::optional<MonitorHealth> health(
      const std::string& tenant) const;

  /// Whole-daemon verdict: healthy iff every shard is healthy and none
  /// faulted. Reasons are prefixed with the tenant ("tenant2: ...").
  [[nodiscard]] MonitorHealth aggregate_health() const;

  [[nodiscard]] std::size_t shard_count() const;

 private:
  struct Shard {
    explicit Shard(std::string tenant_name) : tenant(std::move(tenant_name)) {}

    const std::string tenant;
    mutable std::mutex mu;
    std::condition_variable idle_cv;  ///< pending empty and no task running.
    std::unique_ptr<SlidingMonitor> monitor;
    ShardState state = ShardState::kRunning;
    std::deque<of::ControlEvent> pending;  ///< Queue (workers > 0 only).
    /// A task is submitted or running, or a serial feed() is in progress.
    bool task_scheduled = false;
    bool listed = false;          ///< In ready_, awaiting the next tick().
    std::uint64_t events = 0;
    std::uint64_t dropped = 0;
    std::uint64_t last_fed_tick = 0;
    std::string fault;
    /// Filled at eviction, before the monitor is freed.
    std::optional<MonitorSnapshot> tombstone_snapshot;
    std::optional<MonitorHealth> tombstone_health;
  };

  std::shared_ptr<Shard> find(const std::string& tenant) const;
  /// Also reports the current tick through `now` (when non-null), so
  /// feed() takes the manager lock once.
  std::shared_ptr<Shard> find_or_create(const std::string& tenant,
                                        bool* created,
                                        std::uint64_t* now = nullptr);
  bool feed_range(const std::string& tenant, const of::ControlEvent* events,
                  std::size_t count);
  /// Claims the shard for a new task if it has queued events, is running
  /// and has none in flight. Caller holds shard.mu and submits on true.
  static bool claim_task_locked(Shard& shard);
  /// Ends the feeding turn claimed through task_scheduled and wakes
  /// waiters. Caller holds shard.mu.
  static void release_task_locked(Shard& shard);
  void submit(const std::shared_ptr<Shard>& shard);
  /// Feeds events[0, count) to the shard's monitor in order; the caller
  /// holds the feeding turn but not shard.mu. On an exception the shard
  /// faults, and the unfed rest of the span plus the whole queue count as
  /// dropped.
  void feed_span(Shard& shard, const of::ControlEvent* events,
                 std::size_t count);
  /// The per-shard executor task (workers > 0): feeds queued batches
  /// through feed_span until the queue is empty or the shard faulted.
  void run_shard(const std::shared_ptr<Shard>& shard);
  /// Dispatches whatever the shard still has queued, then waits until the
  /// queue is empty and no task is in flight.
  void wait_idle(const std::shared_ptr<Shard>& shard);
  /// drain + flush + state transition, shared by stop() and eviction.
  void retire(const std::shared_ptr<Shard>& shard, ShardState final_state);
  static ShardStatus status_locked(const Shard& shard);

  ManagerConfig config_;
  Executor executor_;
  mutable std::mutex mu_;  ///< Guards shards_ and tick_.
  std::map<std::string, std::shared_ptr<Shard>> shards_;
  std::uint64_t tick_ = 0;
  /// Lock order: mu_, then a shard's mu, then ready_mu_ (a leaf).
  std::mutex ready_mu_;
  /// Shards that queued events since the last tick() (workers > 0).
  std::vector<std::shared_ptr<Shard>> ready_;
};

}  // namespace flowdiff::core
