#include "flowdiff/monitor_manager.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

namespace flowdiff::core {

const char* to_string(ShardState state) {
  switch (state) {
    case ShardState::kRunning:
      return "running";
    case ShardState::kStopped:
      return "stopped";
    case ShardState::kFaulted:
      return "faulted";
    case ShardState::kEvicted:
      return "evicted";
  }
  return "unknown";
}

MonitorManager::MonitorManager(ManagerConfig config)
    : config_(std::move(config)), executor_(config_.workers) {}

MonitorManager::~MonitorManager() { stop_all(); }

std::shared_ptr<MonitorManager::Shard> MonitorManager::find(
    const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = shards_.find(tenant);
  return it == shards_.end() ? nullptr : it->second;
}

std::shared_ptr<MonitorManager::Shard> MonitorManager::find_or_create(
    const std::string& tenant, bool* created, std::uint64_t* now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (now) *now = tick_;
  auto it = shards_.find(tenant);
  if (it != shards_.end()) {
    if (created) *created = false;
    return it->second;
  }
  auto shard = std::make_shared<Shard>(tenant);
  shard->monitor = std::make_unique<SlidingMonitor>(config_.options);
  shard->last_fed_tick = tick_;
  shards_.emplace(tenant, shard);
  if (created) *created = true;
  return shard;
}

bool MonitorManager::register_tenant(const std::string& tenant) {
  bool created = false;
  find_or_create(tenant, &created);
  return created;
}

bool MonitorManager::claim_task_locked(Shard& shard) {
  if (shard.task_scheduled || shard.pending.empty() ||
      shard.state != ShardState::kRunning) {
    return false;
  }
  shard.task_scheduled = true;
  return true;
}

void MonitorManager::submit(const std::shared_ptr<Shard>& shard) {
  executor_.submit([this, shard] { run_shard(shard); });
}

void MonitorManager::feed_span(Shard& shard, const of::ControlEvent* events,
                               std::size_t count) {
  std::size_t fed = 0;
  std::string fault;
  try {
    for (; fed < count; ++fed) {
      if (config_.feed_hook) config_.feed_hook(shard.tenant, events[fed]);
      shard.monitor->feed(events[fed]);
    }
    return;
  } catch (const std::exception& e) {
    fault = e.what();
  } catch (...) {
    fault = "unknown exception during feed";
  }
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.state = ShardState::kFaulted;
  shard.fault = std::move(fault);
  // The event that threw, the rest of the span and the whole queue were
  // all accepted into `events` and none will reach the monitor now.
  shard.dropped += (count - fed) + shard.pending.size();
  shard.pending.clear();
}

void MonitorManager::release_task_locked(Shard& shard) {
  shard.task_scheduled = false;
  shard.idle_cv.notify_all();
}

void MonitorManager::run_shard(const std::shared_ptr<Shard>& shard) {
  std::vector<of::ControlEvent> batch;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      // A fault in the previous batch left the shard not running.
      if (shard->pending.empty() || shard->state != ShardState::kRunning) {
        release_task_locked(*shard);
        return;
      }
      const std::size_t take = std::min(shard->pending.size(), kFeedBatch);
      batch.assign(shard->pending.begin(),
                   shard->pending.begin() + static_cast<std::ptrdiff_t>(take));
      shard->pending.erase(
          shard->pending.begin(),
          shard->pending.begin() + static_cast<std::ptrdiff_t>(take));
    }
    feed_span(*shard, batch.data(), batch.size());
  }
}

bool MonitorManager::feed(const std::string& tenant,
                          const of::ControlEvent& event) {
  return feed_range(tenant, &event, 1);
}

bool MonitorManager::feed(const std::string& tenant,
                          const std::vector<of::ControlEvent>& events) {
  return feed_range(tenant, events.data(), events.size());
}

bool MonitorManager::feed_range(const std::string& tenant,
                                const of::ControlEvent* events,
                                std::size_t count) {
  if (count == 0) return true;
  // Lock order is always manager then shard (evict_idle nests that way),
  // so the tick is read with the lookup, before the shard lock.
  std::uint64_t now = 0;
  auto shard = find_or_create(tenant, nullptr, &now);
  std::unique_lock<std::mutex> lock(shard->mu);
  shard->last_fed_tick = now;
  if (executor_.serial()) {
    // Serial mode feeds the caller's range itself, with no queue and no
    // copy. Another thread feeding this tenant at the same time waits its
    // turn, so the monitor still sees one feeder at a time.
    shard->idle_cv.wait(lock, [&shard] { return !shard->task_scheduled; });
  }
  if (shard->state != ShardState::kRunning) {
    shard->dropped += count;
    return false;
  }
  shard->events += count;
  if (executor_.serial()) {
    shard->task_scheduled = true;
    lock.unlock();
    feed_span(*shard, events, count);
    lock.lock();
    release_task_locked(*shard);
    return true;
  }
  shard->pending.insert(shard->pending.end(), events, events + count);
  bool dispatch = false;
  if (shard->pending.size() >= kFeedBatch) {
    dispatch = claim_task_locked(*shard);
  } else if (!shard->task_scheduled && !shard->listed) {
    // An in-flight task drains the queue by itself; otherwise the shard
    // waits for the round boundary.
    shard->listed = true;
    std::lock_guard<std::mutex> ready(ready_mu_);
    ready_.push_back(shard);
  }
  lock.unlock();
  if (dispatch) submit(shard);
  return true;
}

void MonitorManager::wait_idle(const std::shared_ptr<Shard>& shard) {
  std::unique_lock<std::mutex> lock(shard->mu);
  if (claim_task_locked(*shard)) {
    lock.unlock();
    submit(shard);
    lock.lock();
  }
  shard->idle_cv.wait(lock, [&shard] {
    return !shard->task_scheduled &&
           (shard->pending.empty() || shard->state != ShardState::kRunning);
  });
}

void MonitorManager::drain(const std::string& tenant) {
  if (auto shard = find(tenant)) wait_idle(shard);
}

void MonitorManager::retire(const std::shared_ptr<Shard>& shard,
                            ShardState final_state) {
  wait_idle(shard);
  std::unique_lock<std::mutex> lock(shard->mu);
  if (shard->state != ShardState::kRunning) return;
  // No task is in flight and the state bars new ones, so flushing outside
  // the monitor's own locks is single-threaded here.
  shard->monitor->flush();
  if (final_state == ShardState::kEvicted) {
    shard->tombstone_snapshot = shard->monitor->snapshot();
    shard->tombstone_health = shard->monitor->health();
    shard->monitor.reset();
  }
  shard->state = final_state;
}

void MonitorManager::stop(const std::string& tenant) {
  if (auto shard = find(tenant)) retire(shard, ShardState::kStopped);
}

void MonitorManager::stop_all() {
  for (const auto& tenant : tenants()) stop(tenant);
}

std::uint64_t MonitorManager::tick() {
  std::vector<std::shared_ptr<Shard>> ready;
  {
    std::lock_guard<std::mutex> lock(ready_mu_);
    ready.swap(ready_);
  }
  std::vector<std::shared_ptr<Shard>> claimed;
  for (auto& shard : ready) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->listed = false;
    if (claim_task_locked(*shard)) claimed.push_back(std::move(shard));
  }
  if (!claimed.empty()) {
    // At most one task per worker, not one per shard: each executor task
    // costs a packaged task, a future and a wake. Each task pulls the
    // round's next unserved shard until none is left, so the shards spread
    // over the workers as they free up.
    struct Round {
      std::vector<std::shared_ptr<Shard>> shards;
      std::atomic<std::size_t> next{0};
    };
    auto round = std::make_shared<Round>();
    round->shards = std::move(claimed);
    const auto tasks = std::min<std::size_t>(
        round->shards.size(),
        static_cast<std::size_t>(std::max(executor_.workers(), 1)));
    for (std::size_t t = 0; t < tasks; ++t) {
      executor_.submit([this, round] {
        for (std::size_t i = round->next++; i < round->shards.size();
             i = round->next++) {
          run_shard(round->shards[i]);
        }
      });
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  return ++tick_;
}

std::vector<std::string> MonitorManager::evict_idle(
    std::uint64_t idle_ticks) {
  std::vector<std::shared_ptr<Shard>> idle;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, shard] : shards_) {
      std::lock_guard<std::mutex> sl(shard->mu);
      if (shard->state == ShardState::kRunning &&
          tick_ >= shard->last_fed_tick &&
          tick_ - shard->last_fed_tick >= idle_ticks) {
        idle.push_back(shard);
      }
    }
  }
  std::vector<std::string> evicted;
  for (const auto& shard : idle) {
    retire(shard, ShardState::kEvicted);
    evicted.push_back(shard->tenant);
  }
  std::sort(evicted.begin(), evicted.end());
  return evicted;
}

std::vector<std::string> MonitorManager::tenants() const {
  std::vector<std::string> names;
  std::lock_guard<std::mutex> lock(mu_);
  names.reserve(shards_.size());
  for (const auto& [name, shard] : shards_) names.push_back(name);
  return names;  // std::map iteration is already sorted.
}

ShardStatus MonitorManager::status_locked(const Shard& shard) {
  ShardStatus status;
  status.tenant = shard.tenant;
  status.state = shard.state;
  status.events = shard.events;
  status.dropped = shard.dropped;
  status.fault = shard.fault;
  if (shard.monitor) {
    const auto health = shard.monitor->health();
    status.windows = health.windows;
    status.alarms = health.alarms;
    status.healthy = health.healthy && shard.state != ShardState::kFaulted;
  } else if (shard.tombstone_health) {
    status.windows = shard.tombstone_health->windows;
    status.alarms = shard.tombstone_health->alarms;
    status.healthy = shard.tombstone_health->healthy;
  }
  if (shard.state == ShardState::kFaulted) status.healthy = false;
  return status;
}

std::optional<ShardStatus> MonitorManager::status(
    const std::string& tenant) const {
  auto shard = find(tenant);
  if (!shard) return std::nullopt;
  std::lock_guard<std::mutex> lock(shard->mu);
  return status_locked(*shard);
}

std::vector<ShardStatus> MonitorManager::statuses() const {
  std::vector<ShardStatus> out;
  for (const auto& tenant : tenants()) {
    if (auto s = status(tenant)) out.push_back(std::move(*s));
  }
  return out;
}

std::optional<MonitorSnapshot> MonitorManager::snapshot(
    const std::string& tenant) const {
  auto shard = find(tenant);
  if (!shard) return std::nullopt;
  std::lock_guard<std::mutex> lock(shard->mu);
  if (shard->monitor) return shard->monitor->snapshot();
  if (shard->tombstone_snapshot) return *shard->tombstone_snapshot;
  return MonitorSnapshot{};
}

std::optional<MonitorHealth> MonitorManager::health(
    const std::string& tenant) const {
  auto shard = find(tenant);
  if (!shard) return std::nullopt;
  std::lock_guard<std::mutex> lock(shard->mu);
  MonitorHealth health;
  if (shard->monitor) {
    health = shard->monitor->health();
  } else if (shard->tombstone_health) {
    health = *shard->tombstone_health;
  }
  if (shard->state == ShardState::kFaulted) {
    health.healthy = false;
    health.reasons.push_back("shard faulted: " + shard->fault);
  }
  return health;
}

MonitorHealth MonitorManager::aggregate_health() const {
  MonitorHealth aggregate;
  for (const auto& tenant : tenants()) {
    const auto shard_health = health(tenant);
    if (!shard_health) continue;
    aggregate.windows += shard_health->windows;
    aggregate.alarms += shard_health->alarms;
    aggregate.suppressed_changes += shard_health->suppressed_changes;
    aggregate.stream_degraded =
        aggregate.stream_degraded || shard_health->stream_degraded;
    if (!shard_health->healthy) {
      aggregate.healthy = false;
      if (shard_health->reasons.empty()) {
        aggregate.reasons.push_back(tenant + ": unhealthy");
      }
      for (const auto& reason : shard_health->reasons) {
        aggregate.reasons.push_back(tenant + ": " + reason);
      }
    }
  }
  return aggregate;
}

std::size_t MonitorManager::shard_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_.size();
}

}  // namespace flowdiff::core
