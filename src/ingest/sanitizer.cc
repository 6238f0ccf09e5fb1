#include "ingest/sanitizer.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "obs/metrics.h"

namespace flowdiff::ingest {

namespace {

struct IngestMetrics {
  obs::Counter& fed = obs::Registry::global().counter("ingest.fed");
  obs::Counter& kept = obs::Registry::global().counter("ingest.kept");
  obs::Counter& duplicates =
      obs::Registry::global().counter("ingest.duplicates");
  obs::Counter& reordered =
      obs::Registry::global().counter("ingest.reordered");
  obs::Counter& late_dropped =
      obs::Registry::global().counter("ingest.late_dropped");
  obs::Counter& truncated =
      obs::Registry::global().counter("ingest.truncated");
  obs::Gauge& buffer_depth =
      obs::Registry::global().gauge("ingest.buffer.depth");
};

IngestMetrics& metrics() {
  static IngestMetrics m;
  return m;
}

/// Folds one field into a running hash (splitmix64 finalizer).
constexpr std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  std::uint64_t x = h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

std::uint64_t fold(std::uint64_t h, const of::FlowKey& key) {
  h = fold(h, (std::uint64_t{key.src_ip.raw()} << 32) | key.dst_ip.raw());
  return fold(h, (std::uint64_t{key.src_port} << 24) |
                     (std::uint64_t{key.dst_port} << 8) |
                     static_cast<std::uint64_t>(key.proto));
}

/// A present optional folds as (1 << 32 | value), an absent one as 0, so
/// presence is part of the identity just as "-" is in the log line.
template <typename T, typename Raw>
std::uint64_t fold_opt(std::uint64_t h, const std::optional<T>& v, Raw raw) {
  return fold(h, v ? (std::uint64_t{1} << 32) | raw(*v) : 0);
}

std::uint64_t fold(std::uint64_t h, const of::FlowMatch& m) {
  const auto ip = [](Ipv4 a) { return std::uint64_t{a.raw()}; };
  const auto u16 = [](std::uint16_t p) { return std::uint64_t{p}; };
  h = fold_opt(h, m.src_ip, ip);
  h = fold_opt(h, m.dst_ip, ip);
  h = fold_opt(h, m.src_port, u16);
  h = fold_opt(h, m.dst_port, u16);
  h = fold_opt(h, m.proto,
               [](of::Proto p) { return static_cast<std::uint64_t>(p); });
  return fold_opt(h, m.in_port,
                  [](PortId p) { return std::uint64_t{p.value}; });
}

/// Dedup identity: a 64-bit hash over exactly the fields serialize_event
/// writes (timestamp, controller, message type and every message field).
/// Equal events hash equal; a hash match is confirmed by operator==.
std::uint64_t event_identity(const of::ControlEvent& event) {
  std::uint64_t h = fold(0, static_cast<std::uint64_t>(event.ts));
  h = fold(h, (std::uint64_t{event.controller.value} << 8) |
                  event.msg.index());
  if (const auto* pin = std::get_if<of::PacketIn>(&event.msg)) {
    h = fold(h, (std::uint64_t{pin->sw.value} << 32) | pin->in_port.value);
    h = fold(h, pin->key);
    return fold(h, pin->flow_uid);
  }
  if (const auto* fm = std::get_if<of::FlowMod>(&event.msg)) {
    h = fold(h, (std::uint64_t{fm->sw.value} << 32) | fm->out_port.value);
    h = fold(h, static_cast<std::uint64_t>(fm->idle_timeout));
    h = fold(h, static_cast<std::uint64_t>(fm->hard_timeout));
    h = fold(h, fm->match);
    h = fold(h, fm->key);
    return fold(h, fm->flow_uid);
  }
  if (const auto* po = std::get_if<of::PacketOut>(&event.msg)) {
    h = fold(h, (std::uint64_t{po->sw.value} << 32) | po->out_port.value);
    h = fold(h, po->key);
    return fold(h, po->flow_uid);
  }
  if (const auto* fr = std::get_if<of::FlowRemoved>(&event.msg)) {
    h = fold(h, (std::uint64_t{fr->sw.value} << 8) |
                    static_cast<std::uint64_t>(fr->reason));
    h = fold(h, static_cast<std::uint64_t>(fr->duration));
    h = fold(h, fr->byte_count);
    h = fold(h, fr->packet_count);
    h = fold(h, fr->match);
    return fold(h, fr->key);
  }
  if (const auto* echo = std::get_if<of::EchoReply>(&event.msg)) {
    return fold(h, echo->sw.value);
  }
  if (const auto* st = std::get_if<of::FlowStatsReply>(&event.msg)) {
    h = fold(h, st->sw.value);
    h = fold(h, static_cast<std::uint64_t>(st->age));
    h = fold(h, st->byte_count);
    h = fold(h, st->packet_count);
    h = fold(h, st->match);
    return fold(h, st->key);
  }
  return h;
}

}  // namespace

void StreamSanitizer::Ring::push_back(Slot slot) {
  if (size_ == slots_.size()) {
    // Full: unroll into a buffer twice the size, oldest first.
    std::vector<Slot> grown(slots_.empty() ? 64 : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      grown[i] = std::move((*this)[i]);
    }
    slots_ = std::move(grown);
    head_ = 0;
  }
  (*this)[size_] = std::move(slot);
  ++size_;
}

StreamSanitizer::StreamSanitizer(SanitizerConfig config) : config_(config) {}

bool StreamSanitizer::is_truncated(const of::ControlEvent& event) const {
  // A flow that carried packets carried bytes and vice versa; a record
  // where one counter is zero and the other is not lost a field in
  // capture. Both-zero is a legitimate never-hit entry.
  if (const auto* fr = std::get_if<of::FlowRemoved>(&event.msg)) {
    return (fr->byte_count == 0) != (fr->packet_count == 0);
  }
  if (const auto* st = std::get_if<of::FlowStatsReply>(&event.msg)) {
    return (st->byte_count == 0) != (st->packet_count == 0);
  }
  return false;
}

void StreamSanitizer::push(const of::ControlEvent& event, const Sink& sink) {
  ++window_.fed;
  ++total_.fed;
  metrics().fed.inc();

  if (config_.drop_truncated && is_truncated(event)) {
    ++window_.truncated;
    ++total_.truncated;
    metrics().truncated.inc();
    return;
  }

  if (event.ts < released_up_to_) {
    // Arrived after the watermark already passed its slot: order cannot be
    // restored without rewriting history downstream.
    ++window_.late_dropped;
    ++total_.late_dropped;
    metrics().late_dropped.inc();
    return;
  }

  const std::uint64_t identity = config_.dedup ? event_identity(event) : 0;
  if (config_.dedup && is_duplicate(event, identity)) {
    ++window_.duplicates;
    ++total_.duplicates;
    metrics().duplicates.inc();
    return;
  }

  Slot slot{next_seq_++, identity, event};
  if (max_ts_ == kNoTs || event.ts >= max_ts_) {
    ring_.push_back(std::move(slot));
    max_ts_ = event.ts;
  } else {
    // Within-horizon displacement; the heap will restore it.
    ++window_.reordered;
    ++total_.reordered;
    metrics().reordered.inc();
    heap_.push_back(std::move(slot));
    std::push_heap(heap_.begin(), heap_.end(), releases_after);
  }
  metrics().buffer_depth.set(static_cast<std::int64_t>(buffered()));
  // Saturate instead of underflowing when a deeply negative timestamp
  // meets the horizon (signed overflow would be UB under UBSan).
  const SimTime watermark =
      (max_ts_ < kNoTs + config_.lateness_horizon)
          ? kNoTs
          : max_ts_ - config_.lateness_horizon;
  release(watermark, sink);
}

bool StreamSanitizer::is_duplicate(const of::ControlEvent& event,
                                   std::uint64_t identity) {
  const auto same = [&](Slot& slot) {
    return slot.identity == identity && slot.event == event;
  };
  // The ring is sorted by timestamp: its equal-ts run is the tail for an
  // in-order arrival and a binary-searched run for a displaced one.
  std::size_t lo = ring_.size();
  if (max_ts_ != kNoTs && event.ts < max_ts_) {
    std::size_t count = ring_.size();
    lo = 0;
    while (count > 0) {
      const std::size_t half = count / 2;
      if (ring_[lo + half].event.ts < event.ts) {
        lo += half + 1;
        count -= half + 1;
      } else {
        count = half;
      }
    }
    for (std::size_t i = lo; i < ring_.size() && ring_[i].event.ts == event.ts;
         ++i) {
      if (same(ring_[i])) return true;
    }
    // Heap entries all sit below max_ts_, so only a displaced arrival can
    // collide with one; the heap holds displaced arrivals only and is small.
    return std::any_of(heap_.begin(), heap_.end(), [&](Slot& slot) {
      return slot.event.ts == event.ts && same(slot);
    });
  }
  while (lo > 0 && ring_[lo - 1].event.ts == event.ts) {
    if (same(ring_[--lo])) return true;
  }
  return false;
}

void StreamSanitizer::push(const std::vector<of::ControlEvent>& events,
                           const Sink& sink) {
  for (const auto& event : events) push(event, sink);
}

void StreamSanitizer::release(SimTime watermark, const Sink& sink) {
  for (;;) {
    const bool ring_ready =
        !ring_.empty() && ring_.front().event.ts <= watermark;
    const bool heap_ready =
        !heap_.empty() && heap_.front().event.ts <= watermark;
    if (!ring_ready && !heap_ready) break;
    const bool from_heap =
        heap_ready && (!ring_ready || releases_before(heap_.front(),
                                                      ring_.front()));
    const of::ControlEvent& event =
        from_heap ? heap_.front().event : ring_.front().event;
    ++window_.kept;
    ++total_.kept;
    metrics().kept.inc();
    note_pairing(event);
    sink(event);
    if (from_heap) {
      std::pop_heap(heap_.begin(), heap_.end(), releases_after);
      heap_.pop_back();
    } else {
      ring_.pop_front();
    }
  }
  released_up_to_ = std::max(released_up_to_, watermark);
  metrics().buffer_depth.set(static_cast<std::int64_t>(buffered()));
}

void StreamSanitizer::flush(const Sink& sink) {
  if (buffered() > 0) release(max_ts_, sink);
}

void StreamSanitizer::note_pairing(const of::ControlEvent& event) {
  if (const auto* pin = std::get_if<of::PacketIn>(&event.msg)) {
    if (pin->flow_uid != 0) pair_seen_[pin->flow_uid] |= 1u;
  } else if (const auto* fm = std::get_if<of::FlowMod>(&event.msg)) {
    if (fm->flow_uid != 0) pair_seen_[fm->flow_uid] |= 2u;
  }
}

StreamQuality StreamSanitizer::take_window_quality() {
  for (const auto& [uid, bits] : pair_seen_) {
    if (bits == 3u) {
      ++window_.pairs_matched;
    } else if (bits == 1u) {
      ++window_.orphan_packet_ins;
    } else if (bits == 2u) {
      ++window_.orphan_flow_mods;
    }
  }
  pair_seen_.clear();
  total_.pairs_matched += window_.pairs_matched;
  total_.orphan_packet_ins += window_.orphan_packet_ins;
  total_.orphan_flow_mods += window_.orphan_flow_mods;
  StreamQuality out = window_;
  window_ = StreamQuality{};
  return out;
}

SanitizedLog sanitize_log(const std::vector<of::ControlEvent>& events,
                          const SanitizerConfig& config) {
  SanitizedLog out;
  StreamSanitizer sanitizer(config);
  const auto sink = [&out](const of::ControlEvent& event) {
    out.log.append(event);
  };
  for (const auto& event : events) sanitizer.push(event, sink);
  sanitizer.flush(sink);
  out.quality = sanitizer.take_window_quality();
  return out;
}

}  // namespace flowdiff::ingest
