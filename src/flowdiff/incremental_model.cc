#include "flowdiff/incremental_model.h"

#include <algorithm>
#include <bit>
#include <future>
#include <numeric>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "flowdiff/app_groups.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace flowdiff::core {

namespace {

using State = IncrementalWindowState;
constexpr std::uint32_t kNone = State::kNone;

/// Stored DD samples across all triples before the window falls back to the
/// from-scratch oracle — bounds feed-time memory on adversarial streams
/// (a stored sample is 24 bytes, so the cap is ~24 MB of pairing state).
constexpr std::uint64_t kMaxDdSamples = 1'000'000;

/// `reset()` keeps a buffer's capacity unless it holds more than
/// kRetainFloor elements and more than kRetainFactor times what the closing
/// window used; such a buffer is released, so an outlier window's peak is
/// not pinned for the life of the monitor.
constexpr std::size_t kRetainFactor = 4;
constexpr std::size_t kRetainFloor = 4096;

struct CodePairHash {
  std::size_t operator()(
      const std::pair<std::uint64_t, std::uint64_t>& p) const noexcept {
    return State::U64Hash{}(p.first * 0x9e3779b97f4a7c15ull ^ p.second);
  }
};

bool oversized(std::size_t capacity, std::size_t used) {
  return capacity > kRetainFloor && capacity > kRetainFactor * used;
}

template <class T>
void recycle(std::vector<T>& v) {
  if (oversized(v.capacity(), v.size())) {
    std::vector<T>().swap(v);
  } else {
    v.clear();
  }
}

template <class T>
std::size_t bytes_of(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

std::uint32_t intern_host(State& st, Ipv4 ip) {
  const auto next = static_cast<std::uint32_t>(st.hosts.size());
  const auto [id, fresh] = st.host_ids.insert(ip.raw(), next);
  if (fresh) {
    st.hosts.push_back(ip);
    // Rings past the window's hosts are empty leftovers of earlier
    // windows: reuse them (and their buffers) before adding new ones.
    if (st.in_recent.size() < st.hosts.size()) {
      st.in_recent.emplace_back();
      st.out_recent.emplace_back();
    }
  }
  return *id;
}

std::uint32_t intern_edge(State& st, Ipv4 src, Ipv4 dst) {
  const std::uint64_t key = (std::uint64_t{src.raw()} << 32) | dst.raw();
  const auto next = static_cast<std::uint32_t>(st.edges.size());
  const auto [id, fresh] = st.edge_ids.insert(key, next);
  if (!fresh) return *id;
  State::EdgeAgg agg;
  agg.key = key;
  agg.src = intern_host(st, src);
  agg.dst = intern_host(st, dst);
  st.edges.push_back(agg);
  return next;
}

/// The window's flow starts and DD samples grouped per edge / per triple
/// (CSR: offsets plus one contiguous array, arrival order inside each
/// group), and the edge and triple ids in the order the from-scratch
/// extractors' maps iterate them.
struct Layout {
  explicit Layout(const State& st) {
    const std::size_t edge_count = st.edges.size();
    start_off.resize(edge_count + 1, 0);
    for (std::size_t e = 0; e < edge_count; ++e) {
      start_off[e + 1] = start_off[e] + st.edges[e].starts;
    }
    starts.resize(st.occurrences.size());
    std::vector<std::size_t> cursor(start_off.begin(), start_off.end() - 1);
    for (const auto& occ : st.occurrences) {
      starts[cursor[occ.edge]++] = occ.first_ts;
    }

    const std::size_t triple_count = st.triples.size();
    pair_off.resize(triple_count + 1, 0);
    for (std::size_t t = 0; t < triple_count; ++t) {
      pair_off[t + 1] = pair_off[t] + st.triples[t].samples;
    }
    pairs.resize(st.dd_samples.size());
    cursor.assign(pair_off.begin(), pair_off.end() - 1);
    for (const auto& s : st.dd_samples) {
      pairs[cursor[s.triple]++] = {s.t_in, s.t_out};
    }

    edge_order.resize(edge_count);
    std::iota(edge_order.begin(), edge_order.end(), 0U);
    std::sort(edge_order.begin(), edge_order.end(),
              [&st](std::uint32_t a, std::uint32_t b) {
                return st.edges[a].key < st.edges[b].key;
              });
    // (a, b, c) order: the in-edge key is (a, b), then c.
    triple_order.resize(triple_count);
    std::iota(triple_order.begin(), triple_order.end(), 0U);
    const auto triple_key = [&st](std::uint32_t t) {
      const auto& tri = st.triples[t];
      return std::pair{st.edges[tri.in_edge].key,
                       st.hosts[st.edges[tri.out_edge].dst]};
    };
    std::sort(triple_order.begin(), triple_order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return triple_key(a) < triple_key(b);
              });
  }

  [[nodiscard]] std::span<const SimTime> starts_of(std::uint32_t e) const {
    return {starts.data() + start_off[e], starts.data() + start_off[e + 1]};
  }
  [[nodiscard]] std::span<const std::pair<SimTime, SimTime>> pairs_of(
      std::uint32_t t) const {
    return {pairs.data() + pair_off[t], pairs.data() + pair_off[t + 1]};
  }

  std::vector<std::size_t> start_off;
  std::vector<SimTime> starts;
  std::vector<std::size_t> pair_off;
  std::vector<std::pair<SimTime, SimTime>> pairs;
  std::vector<std::uint32_t> edge_order;
  std::vector<std::uint32_t> triple_order;
};

/// Member edges / triples of one application group, in sorted (map) order —
/// the same order the from-scratch extractor visits them in.
struct GroupWork {
  std::vector<std::uint32_t> edges;
  std::vector<std::uint32_t> triples;
  std::uint64_t start_total = 0;
};

HostEdge host_edge(const State& st, std::uint32_t e) {
  return {st.hosts[st.edges[e].src], st.hosts[st.edges[e].dst]};
}

EdgePair edge_pair(const State& st, std::uint32_t t) {
  const auto& in = st.edges[st.triples[t].in_edge];
  return {st.hosts[in.src], st.hosts[in.dst],
          st.hosts[st.edges[st.triples[t].out_edge].dst]};
}

std::span<const SimTime> in_range(std::span<const SimTime> starts, SimTime t0,
                                  SimTime t1) {
  const auto lo = std::lower_bound(starts.begin(), starts.end(), t0);
  const auto hi = std::lower_bound(lo, starts.end(), t1);
  return {lo, hi};
}

void add_ci(ComponentInteractionSig& ci, const HostEdge& edge,
            std::uint64_t n) {
  auto& src_ci = ci.per_node[edge.first];
  src_ci.edge_counts[edge] += n;
  src_ci.total += n;
  auto& dst_ci = ci.per_node[edge.second];
  dst_ci.edge_counts[edge] += n;
  dst_ci.total += n;
}

/// Histogram-weighted mean, exactly as the from-scratch extractor computes
/// it (ascending-bin accumulation off bin midpoints).
double hist_mean(const Histogram& hist) {
  double weighted = 0.0;
  for (std::size_t bin = 0; bin < hist.bin_count(); ++bin) {
    weighted += hist.bin_center(bin) * static_cast<double>(hist.count_at(bin));
  }
  return weighted / static_cast<double>(hist.total());
}

/// PC over per-epoch flow-count series of the group's edges with starts in
/// [t0, t1): every in-edge / out-edge pair at a node, both past the flow
/// gate, gets a correlation.
void add_pc(const State& st, const Layout& layout,
            const std::vector<std::uint32_t>& edges, SimTime t0, SimTime t1,
            std::size_t epochs, const AppSignatureConfig& app,
            PartialCorrelationSig& pc) {
  struct EdgeSeries {
    std::uint32_t edge;
    std::uint64_t n;
    std::size_t offset;  ///< Into `values`.
  };
  std::vector<EdgeSeries> series;
  series.reserve(edges.size());
  std::vector<double> values;
  std::vector<double> group_series;
  if (app.pc_control_for_group) group_series.assign(epochs, 0.0);
  for (const std::uint32_t e : edges) {
    const auto starts = in_range(layout.starts_of(e), t0, t1);
    if (starts.empty()) continue;
    const std::size_t offset = values.size();
    values.resize(offset + epochs, 0.0);
    for (const SimTime ts : starts) {
      const auto ep = static_cast<std::size_t>((ts - t0) / app.pc_epoch);
      if (ep < epochs) {
        values[offset + ep] += 1.0;
        if (app.pc_control_for_group) group_series[ep] += 1.0;
      }
    }
    series.push_back({e, starts.size(), offset});
  }
  const auto series_of = [&](const EdgeSeries& s) {
    return std::span<const double>(values.data() + s.offset, epochs);
  };
  std::vector<double> control(app.pc_control_for_group ? epochs : 0);
  for (const auto& in : series) {
    if (in.n < app.min_edge_flows) continue;
    const auto& in_edge = st.edges[in.edge];
    for (const auto& out : series) {
      const auto& out_edge = st.edges[out.edge];
      if (out_edge.src != in_edge.dst) continue;
      if (out_edge.dst == in_edge.src) continue;
      if (out.n < app.min_edge_flows) continue;
      const auto x = series_of(in);
      const auto y = series_of(out);
      double rho;
      if (app.pc_control_for_group) {
        for (std::size_t ep = 0; ep < epochs; ++ep) {
          control[ep] = group_series[ep] - x[ep] - y[ep];
        }
        rho = partial_correlation(x, y, control);
      } else {
        rho = pearson(x, y);
      }
      pc.rho[EdgePair{st.hosts[in_edge.src], st.hosts[in_edge.dst],
                      st.hosts[out_edge.dst]}] = rho;
    }
  }
}

/// Window-wide signatures plus the per-segment stability sub-models for one
/// group, assembled from the delta-maintained aggregates. Writes only its
/// own position-indexed GroupModel slot, so the parallel fan-out stays
/// bit-identical to serial.
void assemble_group(const State& st, const Layout& layout,
                    const GroupWork& work, const std::set<Ipv4>& members,
                    SimTime begin, SimTime end, int segments,
                    const ModelConfig& config, GroupModel& out) {
  const AppSignatureConfig& app = config.app;
  GroupSignatures& sig = out.sig;
  sig.members = members;

  // --- CG + CI + FS per-edge, straight off the aggregates -----------------
  for (const std::uint32_t e : work.edges) {
    const HostEdge edge = host_edge(st, e);
    const auto& agg = st.edges[e];
    const std::uint64_t n = agg.starts;
    if (n > 0) {
      if (n >= app.min_edge_flows) {
        sig.cg.graph.add_edge(edge.first, edge.second);
      }
      add_ci(sig.ci, edge, n);
    }
    if (n > 0 || agg.removed > 0) {
      auto& fs = sig.fs.per_edge[edge];
      fs.flow_count = n;
      fs.first_ts = n > 0 ? layout.starts_of(e).front() : 0;
      fs.bytes = agg.bytes;
      fs.duration_ms = agg.duration_ms;
    }
  }

  // --- FS group-wide flow rate --------------------------------------------
  if (work.start_total > 0) {
    const SimTime rate_end = std::max(end, begin + kSecond);
    const auto buckets =
        static_cast<std::size_t>((rate_end - begin) / kSecond) + 1;
    std::vector<double> per_sec(buckets, 0.0);
    for (const std::uint32_t e : work.edges) {
      for (const SimTime ts : layout.starts_of(e)) {
        const auto b = static_cast<std::size_t>((ts - begin) / kSecond);
        if (b < buckets) per_sec[b] += 1.0;
      }
    }
    for (const double v : per_sec) sig.fs.flows_per_sec.add(v);
  }

  // --- DD window-wide: gate the streamed triples --------------------------
  // Survivors in (map) order; only they can pass the tighter segment gates.
  std::vector<std::uint32_t> dd_kept;
  for (const std::uint32_t t : work.triples) {
    const auto& tri = st.triples[t];
    const std::uint64_t in_n = st.edges[tri.in_edge].starts;
    const std::uint64_t out_n = st.edges[tri.out_edge].starts;
    if (in_n < app.min_edge_flows || out_n < app.min_edge_flows) continue;
    if (tri.samples < app.min_edge_flows) continue;
    DelayDistributionSig::PairDd pair;
    pair.hist = Histogram{app.dd_bin_ms};
    for (const auto& [t_in, t_out] : layout.pairs_of(t)) {
      pair.hist.add(to_millis(t_out - t_in));
    }
    pair.in_flows = in_n;
    pair.out_flows = out_n;
    pair.samples = tri.samples;
    pair.peak_ms = pair.hist.top_peak().center;
    pair.mean_ms = hist_mean(pair.hist);
    sig.dd.per_pair[edge_pair(st, t)] = std::move(pair);
    dd_kept.push_back(t);
  }

  // --- PC window-wide ------------------------------------------------------
  if (work.start_total > 0 && end > begin) {
    const auto epochs =
        static_cast<std::size_t>((end - begin) / app.pc_epoch) + 1;
    add_pc(st, layout, work.edges, begin, end + 1, epochs, app, sig.pc);
  }

  // --- Per-segment stability sub-models ------------------------------------
  // The from-scratch build re-extracts each segment from a sliced log; here
  // every segment is reconstructed from the same aggregates via binary
  // search on the per-edge start times and a re-bucketing pass over the
  // stored DD samples. Stability only reads CI/DD/PC of the segments.
  const auto seg_count = static_cast<std::size_t>(segments);
  const SimTime span_us = std::max<SimTime>(end - begin, 1);
  std::vector<SimTime> bound(seg_count + 1);
  for (std::size_t k = 0; k <= seg_count; ++k) {
    bound[k] = begin + span_us * static_cast<SimTime>(k) / segments;
  }
  std::vector<GroupSignatures> per_segment(seg_count);
  for (std::size_t s = 0; s < seg_count; ++s) {
    const SimTime t0 = bound[s];
    const SimTime t1 = bound[s + 1];
    GroupSignatures& seg = per_segment[s];

    std::uint64_t seg_total = 0;
    for (const std::uint32_t e : work.edges) {
      const auto n = in_range(layout.starts_of(e), t0, t1).size();
      seg_total += n;
      if (n > 0) add_ci(seg.ci, host_edge(st, e), n);
    }

    for (const std::uint32_t t : dd_kept) {
      const auto& tri = st.triples[t];
      const auto in_n =
          in_range(layout.starts_of(tri.in_edge), t0, t1).size();
      if (in_n < app.min_edge_flows) continue;
      const auto out_n =
          in_range(layout.starts_of(tri.out_edge), t0, t1).size();
      if (out_n < app.min_edge_flows) continue;
      const auto pairs = layout.pairs_of(t);
      const auto in_segment = [t0, t1](const std::pair<SimTime, SimTime>& p) {
        return p.second >= t0 && p.second < t1 && p.first >= t0;
      };
      const auto samples = static_cast<std::uint64_t>(
          std::count_if(pairs.begin(), pairs.end(), in_segment));
      if (samples < app.min_edge_flows) continue;
      DelayDistributionSig::PairDd pair;
      pair.hist = Histogram{app.dd_bin_ms};
      for (const auto& p : pairs) {
        if (in_segment(p)) pair.hist.add(to_millis(p.second - p.first));
      }
      pair.in_flows = in_n;
      pair.out_flows = out_n;
      pair.samples = samples;
      pair.peak_ms = pair.hist.top_peak().center;
      pair.mean_ms = hist_mean(pair.hist);
      seg.dd.per_pair[edge_pair(st, t)] = std::move(pair);
    }

    if (seg_total > 0 && t1 > t0) {
      const auto epochs =
          static_cast<std::size_t>((t1 - t0) / app.pc_epoch) + 1;
      add_pc(st, layout, work.edges, t0, t1, epochs, app, seg.pc);
    }
  }

  analyze_group_stability(per_segment, config, out);
}

/// Infrastructure signatures from the incremental state. CRT is a running
/// sum; UTIL sums the poll records per (switch, poll time) in arrival order,
/// as the from-scratch extractor's map does; PT/ISL walk the completed
/// occurrences' hop chains without per-occurrence copies: consecutive
/// same-switch hops collapse on the fly, topology edges dedupe on integer
/// codes before any node string is built, and ISL stats accumulate per
/// switch pair in the identical walk order.
InfraSignatures assemble_infra(const State& st) {
  InfraSignatures out;

  // Integer node codes: high bit selects switch vs host; strings are built
  // once per distinct node that actually reaches the graph.
  constexpr std::uint64_t kSwitchBit = 1ULL << 32;
  std::unordered_map<std::uint64_t, PtNode> names;
  const auto name_of = [&names](std::uint64_t code) -> const PtNode& {
    auto it = names.find(code);
    if (it == names.end()) {
      PtNode n = (code & kSwitchBit)
                     ? pt_switch_node(SwitchId{static_cast<std::uint32_t>(code)})
                     : pt_host_node(Ipv4{static_cast<std::uint32_t>(code)});
      it = names.emplace(code, std::move(n)).first;
    }
    return it->second;
  };
  State::DenseIndex<std::pair<std::uint64_t, std::uint64_t>, CodePairHash>
      seen;
  const auto add_undirected = [&](std::uint64_t u, std::uint64_t v) {
    const auto [lo, hi] = std::minmax(u, v);
    if (!seen.insert({lo, hi}, 0).second) return;
    // Orientation canonicalizes on the *string* order, exactly like the
    // from-scratch extractor ("host:..." < "sw:...", "sw:10" < "sw:9").
    const PtNode& a = name_of(u);
    const PtNode& b = name_of(v);
    if (a <= b) {
      out.pt.graph.add_edge(a, b);
    } else {
      out.pt.graph.add_edge(b, a);
    }
  };
  // ISL stats per (switch, next switch), by dense id until the walk ends.
  State::DenseIndex<std::uint64_t, State::U64Hash> isl_ids;
  std::vector<std::pair<std::uint64_t, RunningStats>> isl;

  std::vector<const SwitchHop*> chain;  // Newest hop first.
  std::vector<const SwitchHop*> walk;
  for (const auto& occ : st.occurrences) {
    chain.clear();
    for (std::uint32_t h = occ.last_hop; h != kNone; h = st.hops[h].prev) {
      chain.push_back(&st.hops[h].hop);
    }
    if (chain.empty()) continue;
    walk.clear();
    for (auto hop = chain.rbegin(); hop != chain.rend(); ++hop) {
      if (!walk.empty() && walk.back()->sw == (*hop)->sw) continue;
      walk.push_back(*hop);
    }
    std::size_t answered = 0;
    while (answered < walk.size() && walk[answered]->flow_mod_ts >= 0) {
      ++answered;
    }
    add_undirected(occ.key.src_ip.raw(), kSwitchBit | walk.front()->sw.value);
    if (answered == walk.size()) {
      add_undirected(kSwitchBit | walk.back()->sw.value, occ.key.dst_ip.raw());
    }
    for (std::size_t i = 0; i + 1 < answered; ++i) {
      const SwitchHop& a = *walk[i];
      const SwitchHop& b = *walk[i + 1];
      add_undirected(kSwitchBit | a.sw.value, kSwitchBit | b.sw.value);
      if (b.packet_in_ts >= a.flow_mod_ts) {
        const std::uint64_t key =
            (std::uint64_t{a.sw.value} << 32) | b.sw.value;
        const auto [id, fresh] =
            isl_ids.insert(key, static_cast<std::uint32_t>(isl.size()));
        if (fresh) isl.emplace_back(key, RunningStats{});
        isl[*id].second.add(to_millis(b.packet_in_ts - a.flow_mod_ts));
      }
    }
  }
  for (const auto& [key, stats] : isl) {
    out.isl.latency_ms.emplace(
        std::pair{static_cast<std::uint32_t>(key >> 32),
                  static_cast<std::uint32_t>(key)},
        stats);
  }

  out.crt.response_ms = st.crt_response_ms;
  // Poll records by (switch, poll time), arrival order within a key.
  std::vector<std::uint32_t> order(st.poll_rates.size());
  std::iota(order.begin(), order.end(), 0U);
  const auto poll_key = [&st](std::uint32_t i) {
    return std::pair{st.poll_rates[i].sw, st.poll_rates[i].ts};
  };
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return std::pair{poll_key(a), a} < std::pair{poll_key(b), b};
  });
  for (std::size_t i = 0; i < order.size();) {
    const auto key = poll_key(order[i]);
    double bps = 0.0;
    for (; i < order.size() && poll_key(order[i]) == key; ++i) {
      bps += st.poll_rates[order[i]].bps;
    }
    out.load.mbps[key.first].add(bps / 1e6);
  }
  return out;
}

}  // namespace

// --- flat containers -------------------------------------------------------

std::size_t IncrementalWindowState::U64Hash::operator()(
    std::uint64_t x) const noexcept {
  // splitmix64 finalizer.
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<std::size_t>(x);
}

template <class Key, class Hash>
std::uint32_t IncrementalWindowState::DenseIndex<Key, Hash>::find(
    const Key& key) const {
  if (slots_.empty()) return kNone;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = Hash{}(key) & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == kNone || slot.key == key) return slot.id;
  }
}

template <class Key, class Hash>
std::pair<std::uint32_t*, bool>
IncrementalWindowState::DenseIndex<Key, Hash>::insert(const Key& key,
                                                      std::uint32_t id) {
  if (2 * (count_ + 1) > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = Hash{}(key) & mask;; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.id == kNone) {
      slot.key = key;
      slot.id = id;
      ++count_;
      return {&slot.id, true};
    }
    if (slot.key == key) return {&slot.id, false};
  }
}

template <class Key, class Hash>
void IncrementalWindowState::DenseIndex<Key, Hash>::grow() {
  std::vector<Slot> old(std::max<std::size_t>(64, 2 * slots_.size()));
  old.swap(slots_);
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id == kNone) continue;
    std::size_t i = Hash{}(slot.key) & mask;
    while (slots_[i].id != kNone) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

template <class Key, class Hash>
void IncrementalWindowState::DenseIndex<Key, Hash>::clear() {
  // A table sized for at most half full needs 2 * count_ slots.
  if (oversized(slots_.size(), 2 * count_)) {
    std::vector<Slot>().swap(slots_);
  } else {
    for (Slot& slot : slots_) slot.id = kNone;
  }
  count_ = 0;
}

template class IncrementalWindowState::DenseIndex<of::FlowKey,
                                                  std::hash<of::FlowKey>>;
template class IncrementalWindowState::DenseIndex<
    std::uint64_t, IncrementalWindowState::U64Hash>;

void IncrementalWindowState::Ring::push_back(const Recent& r) {
  if (size == buf.size()) {
    std::vector<Recent> grown(std::max<std::size_t>(8, 2 * buf.size()));
    for (std::uint32_t i = 0; i < size; ++i) grown[i] = at(i);
    buf.swap(grown);
    head = 0;
  }
  buf[(head + size) & (buf.size() - 1)] = r;
  ++size;
  peak = std::max(peak, size);
}

std::size_t IncrementalWindowState::Ring::needed() const {
  return peak == 0 ? 0 : std::bit_ceil(std::max<std::size_t>(8, peak));
}

void IncrementalWindowState::Ring::clear() {
  head = 0;
  size = 0;
  peak = 0;
}

void IncrementalWindowState::reset() {
  active = false;
  fallback = false;
  begin = 0;
  end = 0;
  last_ts = 0;
  events = 0;
  recycle(occurrences);
  recycle(hops);
  open.clear();
  // Host ids are per window, so a ring's buffer serves whichever host got
  // its id: the rule weighs all ring buffers together against the buffers
  // this window's rings grew to, and past it releases every ring.
  std::size_t ring_held = 0;
  std::size_t ring_needed = 0;
  for (const auto* rings : {&in_recent, &out_recent}) {
    for (const Ring& ring : *rings) {
      ring_held += ring.buf.size();
      ring_needed += ring.needed();
    }
  }
  if (oversized(ring_held, ring_needed) ||
      oversized(in_recent.size(), hosts.size())) {
    std::vector<Ring>().swap(in_recent);
    std::vector<Ring>().swap(out_recent);
  } else {
    for (Ring& ring : in_recent) ring.clear();
    for (Ring& ring : out_recent) ring.clear();
  }
  recycle(hosts);
  host_ids.clear();
  recycle(edges);
  edge_ids.clear();
  recycle(triples);
  triple_ids.clear();
  recycle(dd_samples);
  crt_response_ms = RunningStats{};
  recycle(poll_rates);
}

std::size_t IncrementalWindowState::footprint_bytes() const {
  std::size_t total = bytes_of(occurrences) + bytes_of(hops) +
                      open.footprint_bytes() + bytes_of(hosts) +
                      host_ids.footprint_bytes() + bytes_of(edges) +
                      edge_ids.footprint_bytes() + bytes_of(triples) +
                      triple_ids.footprint_bytes() + bytes_of(dd_samples) +
                      bytes_of(in_recent) + bytes_of(out_recent) +
                      bytes_of(poll_rates);
  for (const auto* rings : {&in_recent, &out_recent}) {
    for (const Ring& ring : *rings) total += bytes_of(ring.buf);
  }
  return total;
}

// --- modeler ---------------------------------------------------------------

IncrementalModeler::IncrementalModeler(ModelConfig config,
                                       std::shared_ptr<Executor> executor)
    : config_(std::move(config)),
      supported_(supported(config_)),
      executor_(std::move(executor)) {
  if (!executor_) executor_ = std::make_shared<Executor>(0);
}

bool IncrementalModeler::supported(const ModelConfig& config) {
  return config.app.min_edge_flows >= 1;
}

void IncrementalModeler::feed(IncrementalWindowState& st,
                              const of::ControlEvent& event) const {
  if (!supported_) return;
  if (!st.active) {
    st.active = true;
    st.begin = event.ts;
    st.last_ts = event.ts;
  } else if (event.ts < st.last_ts) {
    // The oracle sorts the window log before parsing; an in-window
    // timestamp regression means sorted order differs from feed order, so
    // the aggregates no longer replay the oracle's computation.
    st.fallback = true;
  }
  if (st.fallback) return;
  st.last_ts = event.ts;
  st.end = event.ts;
  ++st.events;

  if (const auto* pin = std::get_if<of::PacketIn>(&event.msg)) {
    const auto next = static_cast<std::uint32_t>(st.occurrences.size());
    auto [slot, fresh] = st.open.insert(pin->key, next);
    if (!fresh && event.ts - st.occurrences[*slot].last_ts > grouping_window_) {
      *slot = next;
      fresh = true;
    }
    const std::uint32_t index = *slot;
    if (fresh) {
      const std::uint32_t edge = on_start(st, pin->key, event.ts);
      st.occurrences.push_back(
          State::Occurrence{pin->key, event.ts, event.ts, edge, kNone});
    }
    auto& occ = st.occurrences[index];
    st.hops.push_back(State::Hop{
        SwitchHop{pin->sw, pin->in_port, PortId{}, event.ts, -1},
        occ.last_hop});
    occ.last_hop = static_cast<std::uint32_t>(st.hops.size() - 1);
    occ.last_ts = event.ts;
  } else if (const auto* fm = std::get_if<of::FlowMod>(&event.msg)) {
    const std::uint32_t index = st.open.find(fm->key);
    if (index == kNone) return;
    auto& occ = st.occurrences[index];
    for (std::uint32_t h = occ.last_hop; h != kNone; h = st.hops[h].prev) {
      SwitchHop& hop = st.hops[h].hop;
      if (hop.sw == fm->sw && hop.flow_mod_ts < 0) {
        hop.flow_mod_ts = event.ts;
        hop.out_port = fm->out_port;
        st.crt_response_ms.add(to_millis(event.ts - hop.packet_in_ts));
        break;
      }
    }
    occ.last_ts = event.ts;
  } else if (const auto* fr = std::get_if<of::FlowRemoved>(&event.msg)) {
    auto& agg = st.edges[intern_edge(st, fr->key.src_ip, fr->key.dst_ip)];
    agg.bytes.add(static_cast<double>(fr->byte_count));
    agg.duration_ms.add(to_millis(fr->duration));
    ++agg.removed;
  } else if (const auto* fs = std::get_if<of::FlowStatsReply>(&event.msg)) {
    if (fs->age > 0) {
      st.poll_rates.push_back(State::PollRate{
          fs->sw.value, event.ts,
          static_cast<double>(fs->byte_count) * 8.0 / to_seconds(fs->age)});
    }
  }
}

std::uint32_t IncrementalModeler::on_start(IncrementalWindowState& st,
                                           const of::FlowKey& key,
                                           SimTime ts) const {
  const std::uint32_t edge = intern_edge(st, key.src_ip, key.dst_ip);
  ++st.edges[edge].starts;
  const std::uint32_t src = st.edges[edge].src;
  const std::uint32_t dst = st.edges[edge].dst;

  // Streaming DD pairing. Every (in-flow, out-flow) pair the from-scratch
  // extractor would form with 0 <= t_out - t_in <= dd_window is recorded
  // exactly once, at the arrival of the later of the two flows. Expired
  // entries are pruned on every access, pushes included: time only moves
  // forward, so an entry expired now is never paired again.
  const SimDuration window = config_.app.dd_window;
  {
    // This start is the out-flow of `src`: pair with earlier flows into it.
    auto& ring = st.in_recent[src];
    while (ring.size > 0 && ts - ring.at(0).ts > window) ring.pop_front();
    for (std::uint32_t i = 0; i < ring.size; ++i) {
      const auto& r = ring.at(i);
      if (r.peer == dst) continue;  // Pure replies carry no dependency signal.
      record_pair(st, r.edge, edge, r.ts, ts);
    }
  }
  {
    // This start is the in-flow into `dst`: an out-flow of `dst` already
    // processed can only pair with it when the timestamps are equal
    // (anything earlier would make the delta negative).
    auto& ring = st.out_recent[dst];
    while (ring.size > 0 && ring.at(0).ts < ts) ring.pop_front();
    for (std::uint32_t i = 0; i < ring.size; ++i) {
      const auto& r = ring.at(i);
      if (r.peer == src) continue;
      record_pair(st, edge, r.edge, ts, r.ts);
    }
  }
  auto& into = st.in_recent[dst];
  while (into.size > 0 && ts - into.at(0).ts > window) into.pop_front();
  into.push_back(State::Recent{edge, src, ts});
  auto& out_of = st.out_recent[src];
  while (out_of.size > 0 && out_of.at(0).ts < ts) out_of.pop_front();
  out_of.push_back(State::Recent{edge, dst, ts});
  return edge;
}

void IncrementalModeler::record_pair(IncrementalWindowState& st,
                                     std::uint32_t in_edge,
                                     std::uint32_t out_edge, SimTime t_in,
                                     SimTime t_out) const {
  const auto next = static_cast<std::uint32_t>(st.triples.size());
  const auto [id, fresh] = st.triple_ids.insert(
      (std::uint64_t{in_edge} << 32) | out_edge, next);
  if (fresh) st.triples.push_back(State::TripleAgg{in_edge, out_edge, 0});
  ++st.triples[*id].samples;
  st.dd_samples.push_back(State::DdSample{*id, t_in, t_out});
  if (st.dd_samples.size() > kMaxDdSamples) st.fallback = true;
}

BehaviorModel IncrementalModeler::finalize(
    const IncrementalWindowState& st) const {
  const obs::Span span("model");
  static obs::LatencyHistogram& build_ms =
      obs::Registry::global().histogram("model.build_ms", 5.0);
  const obs::ScopedTimer timer(build_ms);
  static obs::Counter& builds = obs::Registry::global().counter("model.builds");
  static obs::Counter& events =
      obs::Registry::global().counter("model.events_consumed");
  static obs::Counter& finalizes =
      obs::Registry::global().counter("model.incremental_finalizes");
  builds.inc();
  events.inc(st.events);
  finalizes.inc();

  BehaviorModel model;
  model.begin = st.begin;
  model.end = st.end;
  model.flow_starts.reserve(st.occurrences.size());
  for (const auto& occ : st.occurrences) {
    model.flow_starts.push_back(of::TimedFlow{occ.first_ts, occ.key});
  }

  // Groups depend only on which (src, dst) pairs started a flow, so one
  // flow per edge stands in for the window's flow starts.
  of::FlowSequence edge_flows;
  edge_flows.reserve(st.edges.size());
  for (const auto& edge : st.edges) {
    if (edge.starts == 0) continue;
    of::TimedFlow flow;
    flow.key.src_ip = st.hosts[edge.src];
    flow.key.dst_ip = st.hosts[edge.dst];
    edge_flows.push_back(flow);
  }
  const AppGroups groups =
      discover_groups(edge_flows, config_.special_nodes);
  const std::size_t group_count = groups.groups.size();
  std::vector<int> group_of(st.hosts.size(), -1);
  for (std::size_t g = 0; g < group_count; ++g) {
    for (const Ipv4 ip : groups.groups[g]) {
      const std::uint32_t id = st.host_ids.find(ip.raw());
      if (id != kNone) group_of[id] = static_cast<int>(g);
    }
  }

  // Bucket edges and triples per group, in sorted (map) order: the
  // per-group order the from-scratch extractor iterates in.
  const Layout layout(st);
  std::vector<GroupWork> work(group_count);
  for (const std::uint32_t e : layout.edge_order) {
    const auto& edge = st.edges[e];
    const int g = group_of[edge.src];
    if (g < 0 || group_of[edge.dst] != g) continue;
    auto& w = work[static_cast<std::size_t>(g)];
    w.edges.push_back(e);
    w.start_total += edge.starts;
  }
  for (const std::uint32_t t : layout.triple_order) {
    const auto& in = st.edges[st.triples[t].in_edge];
    const int g = group_of[in.src];
    if (g < 0 || group_of[in.dst] != g ||
        group_of[st.edges[st.triples[t].out_edge].dst] != g) {
      continue;
    }
    work[static_cast<std::size_t>(g)].triples.push_back(t);
  }

  model.groups.resize(group_count);
  const int segments = std::max(2, config_.stability_segments);
  std::future<void> infra = executor_->submit([&model, &st] {
    const obs::Span infra_span("model/infra");
    model.infra = assemble_infra(st);
  });
  try {
    const obs::Span sig_span("model/signatures");
    executor_->parallel_for(group_count, [&](std::size_t g) {
      assemble_group(st, layout, work[g], groups.groups[g], model.begin,
                     model.end, segments, config_, model.groups[g]);
    });
  } catch (...) {
    // The infra task writes `model` and reads `st`: never unwind past it.
    infra.wait();
    throw;
  }
  infra.get();
  return model;
}

}  // namespace flowdiff::core
