#include "flowdiff/monitor.h"

#include <chrono>
#include <map>

#include "flowdiff/monitor_options.h"

#include "obs/flight_recorder.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/table.h"

namespace flowdiff::core {

namespace {

struct MonitorMetrics {
  obs::Counter& windows =
      obs::Registry::global().counter("monitor.windows");
  obs::Counter& alarms = obs::Registry::global().counter("monitor.alarms");
  obs::Counter& clean = obs::Registry::global().counter("monitor.clean");
  obs::Counter& rebaselines =
      obs::Registry::global().counter("monitor.rebaselines");
  obs::Counter& events = obs::Registry::global().counter("monitor.events");
  obs::LatencyHistogram& window_ms =
      obs::Registry::global().histogram("monitor.window_ms", 5.0);
  obs::LatencyHistogram& events_per_window =
      obs::Registry::global().histogram("monitor.events_per_window", 100.0);
  obs::Gauge& audits_dropped =
      obs::Registry::global().gauge("monitor.audits_dropped");
  // Processing-latency stages (see StageLatency in provenance.h): the
  // wall-clock path from a closed window's processing start to its verdict.
  obs::LatencyHistogram& latency_model =
      obs::Registry::global().histogram("monitor.latency.model_ms", 1.0);
  obs::LatencyHistogram& latency_diff =
      obs::Registry::global().histogram("monitor.latency.diff_ms", 1.0);
  obs::LatencyHistogram& latency_decide =
      obs::Registry::global().histogram("monitor.latency.decide_ms", 0.5);
  /// How far the sanitizer's release watermark trails its newest arrival
  /// (µs of stream time buffered for reordering; 0 without a sanitizer).
  obs::Gauge& watermark_lag_us =
      obs::Registry::global().gauge("monitor.watermark_lag_us");
  /// Windows modeled from delta-maintained aggregates vs. windows that had
  /// to rebuild from scratch (out-of-order events, aggregate overflow,
  /// unsupported config). fallbacks staying at zero on a clean stream is
  /// the incremental path's health signal.
  obs::Counter& incremental_windows =
      obs::Registry::global().counter("monitor.incremental.windows");
  obs::Counter& incremental_fallbacks =
      obs::Registry::global().counter("monitor.incremental.fallbacks");
};

MonitorMetrics& metrics() {
  static MonitorMetrics m;
  return m;
}

/// "CG:1 DD:2" summary of the unknown changes behind an alarm.
std::string family_breakdown(const std::vector<Change>& changes) {
  std::map<std::string, int> per_family;
  for (const auto& change : changes) ++per_family[to_string(change.kind)];
  std::string out;
  for (const auto& [family, count] : per_family) {
    if (!out.empty()) out += ' ';
    out += family + ":" + std::to_string(count);
  }
  return out;
}

}  // namespace

SlidingMonitor::SlidingMonitor(MonitorConfig config)
    : config_(std::move(config)),
      flowdiff_(config_.flowdiff),
      ingest_sink_([this](const of::ControlEvent& e) { ingest_event(e); }) {
  if (config_.sanitize) sanitizer_.emplace(config_.ingest);
  // Built from the Modeler's own config (post special-node resolution) and
  // its executor, so the incremental finalize fans out on the same pool and
  // sees exactly the config the from-scratch oracle uses.
  if (config_.incremental) {
    inc_.emplace(flowdiff_.modeler().config(),
                 flowdiff_.modeler().shared_executor());
  }
}

SlidingMonitor::SlidingMonitor(const MonitorOptions& options)
    : SlidingMonitor(options.monitor_config()) {}

void SlidingMonitor::feed(const of::ControlEvent& event) {
  if (!sanitizer_) {
    ingest_event(event);
    return;
  }
  // The sanitizer re-times the stream: windowing below happens on the
  // restored order, so a displaced arrival lands in the window its
  // timestamp belongs to (as long as it beat the lateness horizon).
  sanitizer_->push(event, ingest_sink_);
}

void SlidingMonitor::ingest_event(const of::ControlEvent& event) {
  if (window_start_ < 0) {
    window_start_ = event.ts;
  }
  while (event.ts >= window_start_ + config_.window) {
    close_window(window_start_ + config_.window);
  }
  current_.append(event);
  if (inc_) inc_->feed(inc_state_, event);
}

void SlidingMonitor::feed(const of::ControlLog& log) { feed(log.events()); }

void SlidingMonitor::feed(const std::vector<of::ControlEvent>& events) {
  // Batched fast path: resolve the sanitizer branch once and reuse the
  // prebuilt sink, instead of paying both per event.
  if (sanitizer_) {
    sanitizer_->push(events, ingest_sink_);
    return;
  }
  for (const auto& event : events) ingest_event(event);
}

void SlidingMonitor::flush() {
  if (sanitizer_) {
    sanitizer_->flush(ingest_sink_);
  }
  if (window_start_ >= 0 && !current_.empty()) {
    close_window(current_.end_time() + 1);
  }
}

bool SlidingMonitor::has_baseline() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return baseline_.has_value();
}

std::size_t SlidingMonitor::audits_dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return audits_dropped_;
}

std::uint64_t SlidingMonitor::provenance_dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return provenance_dropped_;
}

std::optional<ProvenanceRecord> SlidingMonitor::find_provenance(
    std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& rec : provenance_) {
    if (rec.id == id) return rec;
  }
  return std::nullopt;
}

std::size_t SlidingMonitor::windows_processed() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return windows_;
}

SimTime SlidingMonitor::baseline_captured_at() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return baseline_begin_;
}

ingest::StreamQuality SlidingMonitor::stream_quality() const {
  return sanitizer_ ? sanitizer_->total() : ingest::StreamQuality{};
}

MonitorSnapshot SlidingMonitor::snapshot() const {
  MonitorSnapshot snap;
  const std::lock_guard<std::mutex> lock(mu_);
  snap.windows = windows_;
  snap.has_baseline = baseline_.has_value();
  snap.baseline_begin = baseline_begin_;
  snap.audits.assign(audits_.begin(), audits_.end());
  snap.audits_dropped = audits_dropped_;
  snap.alarms = alarms_;
  snap.provenance.assign(provenance_.begin(), provenance_.end());
  snap.provenance_dropped = provenance_dropped_;
  return snap;
}

MonitorHealth SlidingMonitor::health() const {
  MonitorHealth health;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    health.windows = windows_;
    health.alarms = alarms_.size();
    health.suppressed_changes = suppressed_total_;
    health.quality = quality_total_;
  }
  health.stream_degraded = health.quality.degraded();
  if (health.stream_degraded) {
    health.reasons.push_back("capture stream degraded (" +
                             health.quality.summary() + ")");
  }
  if (health.suppressed_changes > 0) {
    health.reasons.push_back(
        std::to_string(health.suppressed_changes) +
        " change(s) suppressed as low confidence");
  }
  health.healthy = health.reasons.empty();
  return health;
}

void SlidingMonitor::close_window(SimTime window_end) {
  const SimTime begin = window_start_;
  window_start_ = window_end;
  // Window attribution: counters accumulated while this window was open.
  // Events still in the reorder buffer were fed but not yet kept; they
  // reconcile in the window that releases them.
  ingest::StreamQuality quality;
  if (sanitizer_) {
    quality = sanitizer_->take_window_quality();
    metrics().watermark_lag_us.set(sanitizer_->watermark_lag());
    // Accumulated before the idle-window early return, so idle-window
    // quality is never lost and a /healthz scrape sees corruption as soon
    // as the window closes.
    const std::lock_guard<std::mutex> lock(mu_);
    quality_total_ += quality;
  }
  if (current_.empty()) return;  // Idle window: nothing to model.
  process_window(begin, window_end, quality);
  current_.clear();
  if (inc_) inc_state_.reset();
}

void SlidingMonitor::process_window(SimTime begin, SimTime window_end,
                                    const ingest::StreamQuality& quality) {
  const obs::Span span("monitor/window");
  // The window's four clock reads: processing start, model built, diff
  // done, verdict decided. Nothing upstream of the close is stamped.
  const auto wall_start = std::chrono::steady_clock::now();
  const auto wall_ms = [](std::chrono::steady_clock::time_point from,
                          std::chrono::steady_clock::time_point to) {
    const std::chrono::duration<double, std::milli> d = to - from;
    return d.count();
  };
  const of::ControlLog& window_log = current_;
  StageLatency latency;
  WindowAudit audit;
  audit.window_begin = begin;
  audit.window_end = window_end;
  audit.events = window_log.size();
  audit.quality = quality;
  if (quality.degraded() && obs::enabled()) {
    obs::FlightRecorder::global().record(
        obs::Severity::kWarn, "monitor", "window stream degraded",
        {{"quality", quality.summary()}}, to_seconds(begin));
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    audit.index = windows_;
    ++windows_;
  }
  metrics().windows.inc();
  metrics().events.inc(window_log.size());
  metrics().events_per_window.observe(
      static_cast<double>(window_log.size()));

  // Delta-maintained fast path: when the feed side kept the window's
  // aggregates valid, finalize them instead of rebuilding from the raw log.
  // Bit-identical by construction (incremental_model.h); any window the
  // stream could not represent falls back to the from-scratch oracle.
  const bool use_incremental = inc_ && inc_->ready(inc_state_);
  if (inc_) {
    (use_incremental ? metrics().incremental_windows
                     : metrics().incremental_fallbacks)
        .inc();
  }
  BehaviorModel model = use_incremental
                            ? inc_->finalize(inc_state_)
                            : flowdiff_.modeler().build(window_log);
  const auto model_done = std::chrono::steady_clock::now();
  latency.model_ms = wall_ms(wall_start, model_done);
  metrics().latency_model.observe(latency.model_ms);
  if (!baseline_) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      baseline_ = std::move(model);
      baseline_begin_ = begin;
    }
    audit.baseline_capture = true;
    audit.decision = "adopted as baseline (first non-idle window)";
    if (quality.degraded()) {
      audit.decision += "; stream DEGRADED (" + quality.summary() + ")";
    }
    if (obs::enabled()) {
      obs::FlightRecorder::global().record(
          obs::Severity::kInfo, "monitor", "baseline adopted",
          {{"events", std::to_string(audit.events)}}, to_seconds(begin));
    }
    audit.wall_ms = wall_ms(wall_start, std::chrono::steady_clock::now());
    finish_audit(std::move(audit), std::nullopt);
    return;
  }

  DiffReport report = flowdiff_.diff(*baseline_, model, config_.tasks,
                                     &quality);
  const auto diff_done = std::chrono::steady_clock::now();
  latency.diff_ms = wall_ms(model_done, diff_done);
  metrics().latency_diff.observe(latency.diff_ms);
  const bool clean = report.clean();
  // Any unknown or suppressed change earns the window a provenance record:
  // alarmed windows explain what fired, suppressed-only windows explain
  // why nothing did. The id is assigned here (windows close in stream
  // order, so the sequence is deterministic) but the record commits with
  // the audit under the lock.
  std::optional<ProvenanceRecord> record;
  if (!report.unknown.empty() || !report.suppressed.empty()) {
    record = build_provenance(report, config_.provenance_top_k);
    record->id = ++provenance_seq_;
    record->window_index = audit.index;
    record->window_begin = begin;
    record->window_end = window_end;
    record->events = audit.events;
    record->alarmed = !clean;
  }
  audit.changes = report.changes.size();
  audit.known = report.known.size();
  audit.unknown = report.unknown.size();
  audit.suppressed = report.suppressed.size();
  if (!clean) {
    audit.alarmed = true;
    audit.decision =
        "ALARM: " + std::to_string(report.unknown.size()) +
        " unknown change(s) [" + family_breakdown(report.unknown) + "]";
    if (!report.known.empty()) {
      audit.decision += ", " + std::to_string(report.known.size()) +
                        " task-explained";
    }
    if (!report.suppressed.empty()) {
      audit.decision += ", " + std::to_string(report.suppressed.size()) +
                        " suppressed (low confidence)";
    }
    metrics().alarms.inc();
    if (obs::enabled()) {
      obs::FlightRecorder::global().record(
          obs::Severity::kWarn, "monitor", "alarm raised",
          {{"unknown", std::to_string(report.unknown.size())},
           {"families", family_breakdown(report.unknown)}},
          to_seconds(begin));
    }
    const std::lock_guard<std::mutex> lock(mu_);
    alarms_.push_back(MonitorAlarm{begin, window_end, std::move(report),
                                   record ? record->id : 0});
  } else {
    metrics().clean.inc();
    if (report.changes.empty()) {
      audit.decision = "clean: no signature changes vs baseline";
    } else if (report.suppressed.empty()) {
      audit.decision = "clean: " + std::to_string(report.known.size()) +
                       " change(s) all explained by operator tasks [" +
                       family_breakdown(report.known) + "]";
    } else {
      // Silent only because the stream could not support the families
      // involved; the audit keeps the withheld evidence on record.
      audit.decision = "clean: " + std::to_string(report.known.size()) +
                       " task-explained, " +
                       std::to_string(report.suppressed.size()) +
                       " suppressed (stream too corrupted) [" +
                       family_breakdown(report.suppressed) + "]";
    }
  }
  if (quality.degraded()) {
    audit.decision += "; stream DEGRADED (" + quality.summary() + ")";
  }
  if (clean && config_.rolling_baseline) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      baseline_ = std::move(model);
      baseline_begin_ = begin;
    }
    audit.rebaselined = true;
    audit.decision += "; baseline rolled forward";
    metrics().rebaselines.inc();
  }
  const auto decided = std::chrono::steady_clock::now();
  latency.decide_ms = wall_ms(diff_done, decided);
  latency.total_ms = wall_ms(wall_start, decided);
  metrics().latency_decide.observe(latency.decide_ms);
  audit.wall_ms = latency.total_ms;
  if (record) {
    // The verdict is the final decision string (rolling-baseline and
    // DEGRADED annotations included), so all three surfaces — transcript,
    // /provenance, `flowdiff explain` — agree with the audit trail.
    record->verdict = audit.decision;
    record->latency = latency;
  }
  finish_audit(std::move(audit), std::move(record));
}

void SlidingMonitor::finish_audit(WindowAudit audit,
                                  std::optional<ProvenanceRecord> record) {
  metrics().window_ms.observe(audit.wall_ms);
  const double window_end_s = to_seconds(audit.window_end);
  std::size_t dropped = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    suppressed_total_ += audit.suppressed;
    audits_.push_back(std::move(audit));
    // Rotation keeps week-long runs at fixed memory: oldest audits leave,
    // the gauge records how much history the trail no longer covers.
    while (config_.max_audits > 0 && audits_.size() > config_.max_audits) {
      audits_.pop_front();
      ++audits_dropped_;
    }
    dropped = audits_dropped_;
    if (record) {
      provenance_.push_back(std::move(*record));
      while (config_.max_provenance > 0 &&
             provenance_.size() > config_.max_provenance) {
        provenance_.pop_front();
        ++provenance_dropped_;
      }
    }
  }
  metrics().audits_dropped.set(static_cast<std::int64_t>(dropped));

  // Per-window telemetry cadence: snapshot every registered metric at the
  // window's virtual end time.
  if (config_.sample_metrics && obs::enabled()) {
    obs::Sampler::global().sample(window_end_s);
  }
}

std::string render_monitor_transcript(const MonitorSnapshot& snap) {
  // Deliberately omits WindowAudit::wall_ms (the only nondeterministic
  // audit field): the golden corpus diffs this text byte for byte.
  std::string out;
  out += "=== monitor transcript ===\n";
  out += "windows=" + std::to_string(snap.windows) +
         " alarms=" + std::to_string(snap.alarms.size()) +
         " audits_dropped=" + std::to_string(snap.audits_dropped) + "\n";
  for (const auto& audit : snap.audits) {
    out += "[" + std::to_string(audit.index) + "] " +
           fmt_double(to_seconds(audit.window_begin), 1) + "s.." +
           fmt_double(to_seconds(audit.window_end), 1) +
           "s events=" + std::to_string(audit.events) + " " +
           audit.decision + "\n";
  }
  std::size_t alarm_no = 0;
  for (const auto& alarm : snap.alarms) {
    out += "\n--- alarm " + std::to_string(++alarm_no) + ": window " +
           fmt_double(to_seconds(alarm.window_begin), 1) + "s.." +
           fmt_double(to_seconds(alarm.window_end), 1) + "s ---\n";
    out += alarm.report.render();
  }
  return out;
}

std::string render_monitor_transcript(const SlidingMonitor& monitor) {
  return render_monitor_transcript(monitor.snapshot());
}

std::string render_provenance_transcript(const SlidingMonitor& monitor) {
  // Like render_monitor_transcript: wall-clock latency fields omitted, so
  // identical runs — at any worker count — produce identical text.
  std::string out;
  out += "=== provenance transcript ===\n";
  out += "records=" + std::to_string(monitor.provenance().size()) +
         " dropped=" + std::to_string(monitor.provenance_dropped()) + "\n";
  for (const auto& rec : monitor.provenance()) {
    out += "\n" + render_provenance_text(rec, /*with_latency=*/false);
  }
  return out;
}

}  // namespace flowdiff::core
