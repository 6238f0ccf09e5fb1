// Incremental window modeling: delta-maintained signature families.
//
// `core::Modeler` rebuilds every signature family from scratch for each
// closed window, so steady-state monitor cost is O(window) even when almost
// nothing changed. `IncrementalModeler` moves the per-event work to admit
// time instead: as `SlidingMonitor` feeds events, an `IncrementalWindowState`
// maintains
//
//   - the parsed flow structure (occurrence grouping, hop answering) exactly
//     as `parse_log` would produce it on the same in-order stream,
//   - per-edge aggregates (flow-start counts, FlowRemoved byte/duration
//     running sums) that CG/CI/FS read directly,
//   - per-triple delay samples (DD) paired at feed time against bounded
//     per-host recency rings,
//   - controller response-time running sums and per-poll rate records
//     (CRT/UTIL).
//
// The state is flat and dictionary-coded: hosts, host edges (a -> b) and DD
// triples (a -> b -> c) are interned into dense per-window ids through small
// open-addressing tables, and every aggregate is a vector indexed by id.
// Switch hops live in one arena with per-hop back-links, so a FlowMod still
// answers the newest unanswered hop of its switch; flow starts and DD
// samples are appended in arrival order and grouped per edge / per triple
// only at finalize. `reset()` clears everything in place with its capacity
// kept, so a steady stream feeds without heap allocation.
//
// Closing a window then only runs `finalize`, which sorts the edge and
// triple ids once into the (map) order the from-scratch extractors iterate,
// and assembles a `BehaviorModel` — group discovery, gate checks,
// per-segment stability reconstruction, and an optimized infra walk — in
// time proportional to the model, not the log.
//
// The oracle-identity invariant: `finalize` is BIT-IDENTICAL to
// `Modeler::build` on the same window. Every divergence risk is either
// engineered away (aggregates replay the exact floating-point add sequences
// of the from-scratch extractors) or detected at feed time and turned into a
// fallback (`ready()` false → the caller hands the window log to the
// from-scratch oracle instead). Fallback triggers: out-of-order events
// inside one window (the oracle sorts; the stream cannot), DD sample-budget
// overflow, and unsupported configs (`min_edge_flows == 0`).
// incremental_model_test and parallel_model_test enforce the invariant.
//
// Two callers: `SlidingMonitor` feeds the live stream as it arrives, and
// `FlowDiff::model` feeds a whole offline log in its sorted order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "flowdiff/model.h"
#include "openflow/control_log.h"

namespace flowdiff::core {

/// Delta-maintained aggregates for one in-flight window. Owned by the
/// monitor's feed side and cleared in place (`reset()`) at every close.
struct IncrementalWindowState {
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

  /// Open-addressing map from a key to a dense id (linear probing,
  /// power-of-two slots, at most half full). Ids are never erased within a
  /// window; `clear()` empties the slots in place.
  template <class Key, class Hash>
  class DenseIndex {
   public:
    /// The id stored for `key`, or kNone.
    [[nodiscard]] std::uint32_t find(const Key& key) const;
    /// Stores `id` for `key` unless present. Returns the stored id's slot
    /// (valid until the next insert) and whether `key` was new.
    std::pair<std::uint32_t*, bool> insert(const Key& key, std::uint32_t id);
    void clear();
    [[nodiscard]] std::size_t size() const { return count_; }
    [[nodiscard]] std::size_t footprint_bytes() const {
      return slots_.capacity() * sizeof(Slot);
    }

   private:
    struct Slot {
      Key key{};
      std::uint32_t id = kNone;
    };
    void grow();
    std::vector<Slot> slots_;
    std::size_t count_ = 0;
  };

  struct U64Hash {
    std::size_t operator()(std::uint64_t x) const noexcept;
  };

  // --- lifecycle ---------------------------------------------------------
  bool active = false;      ///< Saw at least one event.
  bool fallback = false;    ///< Aggregates invalid; rebuild from scratch.
  SimTime begin = 0;        ///< First event timestamp.
  SimTime end = 0;          ///< Latest event timestamp.
  SimTime last_ts = 0;      ///< For out-of-order detection.
  std::uint64_t events = 0;

  // --- incremental parse (mirrors parse_log on an in-order stream) -------
  struct Occurrence {
    of::FlowKey key;
    SimTime first_ts = 0;
    SimTime last_ts = 0;              ///< Grouping-window anchor.
    std::uint32_t edge = kNone;       ///< Dense id of (src, dst).
    std::uint32_t last_hop = kNone;   ///< Newest hop in `hops`.
  };
  struct Hop {
    SwitchHop hop;
    std::uint32_t prev = kNone;  ///< Previous hop of the same occurrence.
  };
  std::vector<Occurrence> occurrences;  ///< First-PacketIn order.
  std::vector<Hop> hops;                ///< Arena, PacketIn order.
  /// Open occurrence per 5-tuple: index into `occurrences`.
  DenseIndex<of::FlowKey, std::hash<of::FlowKey>> open;

  // --- dictionaries --------------------------------------------------------
  std::vector<Ipv4> hosts;  ///< Host id -> address.
  DenseIndex<std::uint64_t, U64Hash> host_ids;

  // --- per-edge aggregates (CG/CI/FS/PC source data) ----------------------
  struct EdgeAgg {
    std::uint64_t key = 0;         ///< src.raw() << 32 | dst.raw().
    std::uint32_t src = kNone;     ///< Host ids.
    std::uint32_t dst = kNone;
    std::uint64_t starts = 0;      ///< Occurrences on this edge.
    RunningStats bytes;            ///< FlowRemoved counters, arrival order.
    RunningStats duration_ms;
    std::uint64_t removed = 0;     ///< Entry may exist with zero starts.
  };
  std::vector<EdgeAgg> edges;
  DenseIndex<std::uint64_t, U64Hash> edge_ids;

  // --- per-triple delay samples (DD source data) ---------------------------
  struct TripleAgg {
    std::uint32_t in_edge = kNone;   ///< a -> b.
    std::uint32_t out_edge = kNone;  ///< b -> c.
    std::uint64_t samples = 0;
  };
  struct DdSample {
    std::uint32_t triple = kNone;
    SimTime t_in = 0;
    SimTime t_out = 0;
  };
  std::vector<TripleAgg> triples;
  DenseIndex<std::uint64_t, U64Hash> triple_ids;  ///< in << 32 | out.
  std::vector<DdSample> dd_samples;               ///< Arrival order.

  /// One flow start remembered for streaming DD pairing: its edge, the
  /// host at the edge's other end, and its start time.
  struct Recent {
    std::uint32_t edge = kNone;
    std::uint32_t peer = kNone;
    SimTime ts = 0;
  };
  /// FIFO ring over a power-of-two buffer kept across windows.
  struct Ring {
    std::vector<Recent> buf;
    std::uint32_t head = 0;
    std::uint32_t size = 0;
    std::uint32_t peak = 0;  ///< Largest size since the last clear.

    [[nodiscard]] const Recent& at(std::uint32_t i) const {
      return buf[(head + i) & (buf.size() - 1)];
    }
    void pop_front() {
      head = (head + 1) & static_cast<std::uint32_t>(buf.size() - 1);
      --size;
    }
    void push_back(const Recent& r);
    /// Buffer size `push_back` grows to for `peak` entries (0 if unused).
    [[nodiscard]] std::size_t needed() const;
    void clear();
  };
  /// Flows into / out of each host (by host id) within the pairing window.
  std::vector<Ring> in_recent;
  std::vector<Ring> out_recent;

  // --- infra running sums (CRT/UTIL) --------------------------------------
  RunningStats crt_response_ms;  ///< FlowMod - PacketIn, arrival order.
  struct PollRate {
    std::uint32_t sw = 0;
    SimTime ts = 0;
    double bps = 0.0;
  };
  std::vector<PollRate> poll_rates;  ///< Arrival order.

  /// Drops all window state in place. A buffer far larger than the closing
  /// window used is released instead of kept, so one outlier window cannot
  /// pin its peak.
  void reset();

  /// Heap bytes the state holds (capacity, not size).
  [[nodiscard]] std::size_t footprint_bytes() const;
};

/// Builds `BehaviorModel`s from delta-maintained window state. Stateless
/// apart from the config and the (shared) executor the per-group finalize
/// fans out on; all mutable state lives in `IncrementalWindowState`, so one
/// modeler serves any number of concurrent windows.
class IncrementalModeler {
 public:
  IncrementalModeler(ModelConfig config, std::shared_ptr<Executor> executor);

  /// True when the config permits bit-identical incremental maintenance.
  /// `min_edge_flows == 0` is refused: the from-scratch DD/PC extractors
  /// then emit zero-sample pairs the stream never observes.
  [[nodiscard]] static bool supported(const ModelConfig& config);

  /// Folds one event into the window aggregates. Events must arrive in the
  /// monitor's feed order; a timestamp regression inside the window flips
  /// `state.fallback` (further feeds become no-ops).
  void feed(IncrementalWindowState& state, const of::ControlEvent& event) const;

  /// True when `finalize` would return the oracle-identical model.
  [[nodiscard]] bool ready(const IncrementalWindowState& state) const {
    return supported_ && state.active && !state.fallback;
  }

  /// Assembles the BehaviorModel for the closed window. Requires `ready()`.
  [[nodiscard]] BehaviorModel finalize(const IncrementalWindowState& state) const;

  [[nodiscard]] const ModelConfig& config() const { return config_; }

 private:
  /// New-occurrence hook: counts the edge's start and runs the streaming
  /// DD pairing. Returns the occurrence's edge id.
  std::uint32_t on_start(IncrementalWindowState& state, const of::FlowKey& key,
                         SimTime ts) const;
  void record_pair(IncrementalWindowState& state, std::uint32_t in_edge,
                   std::uint32_t out_edge, SimTime t_in, SimTime t_out) const;

  ModelConfig config_;
  bool supported_;
  std::shared_ptr<Executor> executor_;
  /// Same 5-tuple re-appearing further apart than this opens a new
  /// occurrence — must match parse_log's default for oracle identity.
  SimDuration grouping_window_ = 2 * kSecond;
};

}  // namespace flowdiff::core
