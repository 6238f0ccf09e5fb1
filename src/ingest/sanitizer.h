// Control-stream sanitizer: the ingest edge between capture
// (openflow/log_io, the controller) and modeling.
//
// A production capture point is not the clean oracle the paper assumes:
// it drops events, duplicates them, delivers them out of order, and
// truncates counter fields. Feeding such a stream straight into
// FlowDiff::model() silently skews CG/FS/ISL signatures or trips parsing.
// The StreamSanitizer restores what can be restored and measures what
// cannot:
//
//   * bounded-lateness reorder buffer — events are held until the
//     watermark (max timestamp seen - lateness_horizon) passes them, so
//     any arrival displaced by at most the horizon is emitted back in
//     timestamp order (ties in arrival order); arrivals behind an
//     already-released watermark are dropped and counted (late_dropped).
//     Almost every arrival is in order, so the buffer is split: in-order
//     arrivals append to a contiguous ring, displaced ones go to a small
//     (ts, arrival) min-heap, and release merges the two fronts;
//   * duplicate suppression — an arrival identical to a buffered event
//     with the same timestamp (every field: message type, switch, flow
//     key, xid/cookie-equivalent uid, counters) is dropped and counted.
//     Identity is a 64-bit hash over exactly the fields serialize_event
//     writes; only a hash match pays for the full field comparison;
//   * truncation guard — records whose byte/packet counters contradict
//     each other (bytes without packets or packets without bytes on
//     FlowRemoved/FlowStatsReply) are dropped rather than poisoning FS
//     signatures;
//   * gap reconciliation — released PacketIns and FlowMods are paired by
//     flow uid; orphans on either side estimate capture loss that never
//     reached the sanitizer at all.
//
// The per-window tally lands in a StreamQuality record
// (take_window_quality()), which the monitor attaches to WindowAudits and
// diff/diagnosis use for degraded-mode confidence grading.
//
// Invariant: a clean, time-ordered stream passes through bit-identically
// (same events, same order) with zero duplicates/late/truncated counts —
// parallel_model_test and the golden corpus pin this. On any stream, the
// released events and quality records equal those of the original
// multimap implementation (tests/reference_sanitizer.h), which
// sanitizer_differential_test checks on seeded adversarial streams.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <unordered_map>
#include <vector>

#include "ingest/stream_quality.h"
#include "openflow/control_log.h"

namespace flowdiff::ingest {

struct SanitizerConfig {
  /// How far (in event time) an arrival may lag the newest timestamp seen
  /// and still be restored to order. Larger horizons tolerate sloppier
  /// capture at the cost of buffering latency.
  SimDuration lateness_horizon = kSecond;
  /// Suppress exact duplicates that arrive within the horizon.
  bool dedup = true;
  /// Drop records whose byte/packet counters contradict each other.
  bool drop_truncated = true;
};

class StreamSanitizer {
 public:
  using Sink = std::function<void(const of::ControlEvent&)>;

  explicit StreamSanitizer(SanitizerConfig config);

  /// Feeds one raw capture arrival; zero or more sanitized events are
  /// handed to `sink` in non-decreasing timestamp order.
  void push(const of::ControlEvent& event, const Sink& sink);

  /// Batch form of push(): one Sink for the whole run, so callers replaying
  /// a parsed capture don't rebuild the std::function per event.
  void push(const std::vector<of::ControlEvent>& events, const Sink& sink);

  /// Drains the reorder buffer (end of stream / window shutdown).
  void flush(const Sink& sink);

  /// Takes the counters accumulated since the last call (plus the
  /// PacketIn/FlowMod reconciliation of the events released in between)
  /// and resets them. Events still buffered have been counted as fed but
  /// not yet kept; the totals reconcile once flush() has run.
  [[nodiscard]] StreamQuality take_window_quality();

  /// Whole-run totals (never reset). After flush(),
  /// fed == kept + duplicates + late_dropped + truncated.
  [[nodiscard]] const StreamQuality& total() const { return total_; }

  [[nodiscard]] std::size_t buffered() const {
    return ring_.size() + heap_.size();
  }

  /// How far (in stream time, µs) the release watermark trails the newest
  /// arrival — the reordering delay the sanitizer is currently imposing on
  /// detection. At most the lateness horizon; 0 before any push and after
  /// flush() has caught the watermark up.
  [[nodiscard]] SimDuration watermark_lag() const {
    if (max_ts_ == kNoTs || buffered() == 0) return 0;
    // Every push releases up to its (saturated) watermark, so with events
    // buffered released_up_to_ is that watermark. It is kNoTs only when
    // max_ts_ sits within the horizon of kNoTs, where the difference fits.
    return max_ts_ > released_up_to_ ? max_ts_ - released_up_to_ : 0;
  }

  [[nodiscard]] const SanitizerConfig& config() const { return config_; }

 private:
  /// One buffered arrival. `seq` ranks it among admitted arrivals, so
  /// (event.ts, seq) is the release order: timestamp, then arrival.
  struct Slot {
    std::uint64_t seq = 0;
    std::uint64_t identity = 0;  ///< event_identity(); 0 with dedup off.
    of::ControlEvent event;
  };
  [[nodiscard]] static bool releases_before(const Slot& a, const Slot& b) {
    return a.event.ts != b.event.ts ? a.event.ts < b.event.ts
                                    : a.seq < b.seq;
  }
  /// Heap comparator: keeps the earliest (ts, seq) on top of heap_.
  [[nodiscard]] static bool releases_after(const Slot& a, const Slot& b) {
    return releases_before(b, a);
  }

  /// Power-of-two circular buffer of in-order arrivals; sorted by
  /// (ts, seq) because only arrivals at or past the newest timestamp
  /// append. Storage is kept across releases, so a steady stream stops
  /// allocating once the ring has grown to the horizon's depth.
  class Ring {
   public:
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] Slot& operator[](std::size_t i) {
      return slots_[(head_ + i) & (slots_.size() - 1)];
    }
    [[nodiscard]] Slot& front() { return slots_[head_]; }
    void push_back(Slot slot);
    void pop_front() {
      head_ = (head_ + 1) & (slots_.size() - 1);
      --size_;
    }

   private:
    std::vector<Slot> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  /// True if a buffered event with `event`'s timestamp is identical to it.
  [[nodiscard]] bool is_duplicate(const of::ControlEvent& event,
                                  std::uint64_t identity);
  /// Emits every buffered event with ts <= watermark, oldest first.
  void release(SimTime watermark, const Sink& sink);
  /// Pairs released PacketIns/FlowMods by flow uid (uid 0 = unknown).
  void note_pairing(const of::ControlEvent& event);
  [[nodiscard]] bool is_truncated(const of::ControlEvent& event) const;

  SanitizerConfig config_;
  Ring ring_;               ///< In-order arrivals (ts >= max_ts_ on push).
  std::vector<Slot> heap_;  ///< Displaced arrivals; min-heap on (ts, seq).
  std::uint64_t next_seq_ = 0;
  /// Timestamps are signed and a corrupted capture can legally parse to a
  /// negative one, so -1 is not a safe "nothing yet" sentinel: it would
  /// make flush() strand (and never account for) events at ts <= -1.
  static constexpr SimTime kNoTs = std::numeric_limits<SimTime>::min();
  SimTime max_ts_ = kNoTs;         ///< Newest timestamp ever pushed.
  SimTime released_up_to_ = kNoTs; ///< Highest watermark already released.
  StreamQuality window_;
  StreamQuality total_;
  /// flow uid -> bitmask (1 = PacketIn seen, 2 = FlowMod seen) since the
  /// last take_window_quality().
  std::unordered_map<std::uint64_t, unsigned> pair_seen_;
};

/// Convenience: runs a whole raw arrival sequence through a sanitizer and
/// returns the sanitized, time-ordered log plus the run's quality record.
struct SanitizedLog {
  of::ControlLog log;
  StreamQuality quality;
};
[[nodiscard]] SanitizedLog sanitize_log(
    const std::vector<of::ControlEvent>& events,
    const SanitizerConfig& config = {});

}  // namespace flowdiff::ingest
