// Differential property test: the production StreamSanitizer (ring for
// in-order arrivals, (ts, arrival) min-heap for displaced ones, hashed
// dedup identity) against ReferenceSanitizer, the original multimap
// implementation. On every seeded stream both must release the same
// events in the same order and report identical quality records, window
// by window and in total.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "ingest/sanitizer.h"
#include "openflow/log_io.h"
#include "reference_sanitizer.h"

namespace flowdiff::ingest {
namespace {

std::string fields(const StreamQuality& q) {
  return "fed=" + std::to_string(q.fed) + " kept=" + std::to_string(q.kept) +
         " dup=" + std::to_string(q.duplicates) +
         " reord=" + std::to_string(q.reordered) +
         " late=" + std::to_string(q.late_dropped) +
         " trunc=" + std::to_string(q.truncated) +
         " pairs=" + std::to_string(q.pairs_matched) +
         " orphan_pin=" + std::to_string(q.orphan_packet_ins) +
         " orphan_fmod=" + std::to_string(q.orphan_flow_mods);
}

/// Events drawn from a deliberately tiny field space, so identical events
/// (duplicates) and same-timestamp distinct events (collisions) are common.
class EventGen {
 public:
  explicit EventGen(std::mt19937_64& rng) : rng_(rng) {}

  of::ControlEvent make(SimTime ts) {
    of::ControlEvent event;
    event.ts = ts;
    event.controller = ControllerId{static_cast<std::uint32_t>(pick(2))};
    const auto host = static_cast<std::uint8_t>(1 + pick(2));
    const of::FlowKey key{Ipv4(10, 0, 0, host), Ipv4(10, 0, 1, 1),
                          static_cast<std::uint16_t>(40000 + pick(2)), 80,
                          pick(4) == 0 ? of::Proto::kUdp : of::Proto::kTcp};
    const SwitchId sw{static_cast<std::uint32_t>(1 + pick(2))};
    const std::uint64_t uid = pick(4);  // 0 = unknown uid.
    switch (pick(6)) {
      case 0:
        event.msg = of::PacketIn{sw, PortId{1}, key, uid};
        break;
      case 1: {
        of::FlowMod fm;
        fm.sw = sw;
        fm.key = key;
        fm.match = pick(2) == 0 ? of::FlowMatch::exact(key)
                                : of::FlowMatch::host_pair(key.src_ip,
                                                           key.dst_ip);
        if (pick(3) == 0) fm.match.in_port = PortId{2};
        fm.out_port = PortId{static_cast<std::uint32_t>(2 + pick(2))};
        fm.idle_timeout = static_cast<SimDuration>(pick(2)) * kSecond;
        fm.flow_uid = uid;
        event.msg = fm;
        break;
      }
      case 2:
        event.msg = of::PacketOut{sw, PortId{2}, key, uid};
        break;
      case 3: {
        of::FlowRemoved fr;
        fr.sw = sw;
        fr.key = key;
        fr.match = of::FlowMatch::exact(key);
        fr.duration = static_cast<SimDuration>(pick(3));
        // Sometimes one counter is zero: a truncated record.
        fr.byte_count = pick(4) == 0 ? 0 : 1500 * (1 + pick(2));
        fr.packet_count = pick(4) == 0 ? 0 : 1 + pick(2);
        event.msg = fr;
        break;
      }
      case 4:
        event.msg = of::EchoReply{sw};
        break;
      default: {
        of::FlowStatsReply st;
        st.sw = sw;
        st.key = key;
        st.match = of::FlowMatch::exact(key);
        st.age = static_cast<SimDuration>(pick(2));
        st.byte_count = pick(4) == 0 ? 0 : 700;
        st.packet_count = pick(4) == 0 ? 0 : 2;
        event.msg = st;
        break;
      }
    }
    return event;
  }

  std::uint64_t pick(std::uint64_t n) {
    return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(rng_);
  }

 private:
  std::mt19937_64& rng_;
};

struct StreamShape {
  SimTime base = 0;
  SimDuration horizon = 0;
  /// Per-event chance that the clock stands still (same-ts collision).
  double same_ts = 0.5;
  /// Per-event chance an arrival is displaced behind the clock.
  double displaced = 0.2;
  /// Per-event chance the arrival re-sends a recent event verbatim.
  double resend = 0.15;
  /// Per-event chances of a mid-stream take_window_quality() / flush().
  double take = 0.02;
  double flush = 0.005;
};

/// Drives both sanitizers through one generated stream, comparing after
/// every call. Returns the number of events the production side released.
std::size_t run_differential(const StreamShape& shape, SanitizerConfig config,
                             std::uint64_t seed, std::size_t length) {
  std::mt19937_64 rng(seed);
  EventGen gen(rng);
  std::uniform_real_distribution<double> coin(0.0, 1.0);

  StreamSanitizer production(config);
  testing::ReferenceSanitizer reference(config);
  std::vector<of::ControlEvent> out_prod;
  std::vector<of::ControlEvent> out_ref;
  const auto sink_prod = [&](const of::ControlEvent& e) {
    out_prod.push_back(e);
  };
  const auto sink_ref = [&](const of::ControlEvent& e) {
    out_ref.push_back(e);
  };
  std::size_t compared = 0;  // Released events already checked.
  const auto compare = [&](const char* where, std::size_t step) {
    ASSERT_EQ(out_prod.size(), out_ref.size())
        << where << " step " << step << " seed " << seed;
    for (std::size_t i = compared; i < out_prod.size(); ++i) {
      ASSERT_EQ(of::serialize_event(out_prod[i]),
                of::serialize_event(out_ref[i]))
          << where << " step " << step << " seed " << seed << " index " << i;
    }
    compared = out_prod.size();
    ASSERT_EQ(production.buffered(), reference.buffered())
        << where << " step " << step << " seed " << seed;
    ASSERT_EQ(production.watermark_lag(), reference.watermark_lag())
        << where << " step " << step << " seed " << seed;
    ASSERT_EQ(fields(production.total()), fields(reference.total()))
        << where << " step " << step << " seed " << seed;
  };

  SimTime clock = shape.base;
  std::vector<of::ControlEvent> recent;
  for (std::size_t step = 0; step < length; ++step) {
    of::ControlEvent event;
    if (!recent.empty() && coin(rng) < shape.resend) {
      // Verbatim re-send of a recent arrival: a duplicate of whatever the
      // original became (ring entry, heap entry, released, or dropped).
      event = recent[gen.pick(recent.size())];
    } else {
      if (coin(rng) >= shape.same_ts) {
        clock += static_cast<SimTime>(1 + gen.pick(3));
      }
      SimTime ts = clock;
      if (coin(rng) < shape.displaced) {
        // Displacements up to twice the horizon: some restorable (heap),
        // some beyond it (late).
        const auto back = static_cast<SimTime>(
            gen.pick(static_cast<std::uint64_t>(2 * shape.horizon + 3)));
        // Clamped at the base without computing clock - back first, which
        // would overflow next to the int64 minimum.
        ts = back > clock - shape.base ? shape.base : clock - back;
      }
      event = gen.make(ts);
    }
    recent.push_back(event);
    if (recent.size() > 24) recent.erase(recent.begin());

    production.push(event, sink_prod);
    reference.push(event, sink_ref);
    compare("push", step);
    if (::testing::Test::HasFatalFailure()) return out_prod.size();

    if (coin(rng) < shape.take) {
      EXPECT_EQ(fields(production.take_window_quality()),
                fields(reference.take_window_quality()))
          << "take step " << step << " seed " << seed;
    }
    if (coin(rng) < shape.flush) {
      production.flush(sink_prod);
      reference.flush(sink_ref);
      compare("flush", step);
      if (::testing::Test::HasFatalFailure()) return out_prod.size();
    }
  }
  production.flush(sink_prod);
  reference.flush(sink_ref);
  compare("final flush", length);
  EXPECT_EQ(fields(production.take_window_quality()),
            fields(reference.take_window_quality()))
      << "final take seed " << seed;
  const StreamQuality& q = production.total();
  EXPECT_EQ(q.fed, q.kept + q.duplicates + q.late_dropped + q.truncated)
      << "seed " << seed;
  EXPECT_EQ(q.kept, out_prod.size()) << "seed " << seed;
  return out_prod.size();
}

SanitizerConfig config_for(SimDuration horizon, bool dedup,
                           bool drop_truncated) {
  SanitizerConfig config;
  config.lateness_horizon = horizon;
  config.dedup = dedup;
  config.drop_truncated = drop_truncated;
  return config;
}

TEST(SanitizerDifferential, HeavySameTimestampCollisions) {
  StreamShape shape;
  shape.same_ts = 0.8;  // Runs of up to a dozen events per timestamp.
  shape.horizon = 4;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    run_differential(shape, config_for(shape.horizon, true, true), seed, 600);
    if (HasFatalFailure()) return;
  }
}

TEST(SanitizerDifferential, DuplicatesOfRingAndHeapEntries) {
  StreamShape shape;
  shape.horizon = 10;
  shape.displaced = 0.35;  // Many heap entries to be re-sent.
  shape.resend = 0.35;
  for (std::uint64_t seed = 100; seed < 160; ++seed) {
    run_differential(shape, config_for(shape.horizon, true, true), seed, 600);
    if (HasFatalFailure()) return;
  }
}

TEST(SanitizerDifferential, RingHeapTiesAtOneTimestamp) {
  // A slowly moving clock and a horizon wider than most displacements:
  // displaced arrivals land on timestamps the ring still holds, so release
  // has to break ring/heap ties by arrival order.
  StreamShape shape;
  shape.horizon = 6;
  shape.same_ts = 0.7;
  shape.displaced = 0.5;
  shape.resend = 0.1;
  for (std::uint64_t seed = 200; seed < 260; ++seed) {
    run_differential(shape, config_for(shape.horizon, true, true), seed, 600);
    if (HasFatalFailure()) return;
  }
}

TEST(SanitizerDifferential, NegativeTimestampsAndZeroHorizon) {
  for (std::uint64_t seed = 300; seed < 340; ++seed) {
    StreamShape shape;
    shape.base = -5000;
    shape.horizon = seed % 2 == 0 ? 0 : 3;
    run_differential(shape, config_for(shape.horizon, true, true), seed, 500);
    if (HasFatalFailure()) return;
  }
  // Next to the sentinel: the watermark saturates instead of underflowing.
  StreamShape edge;
  edge.base = std::numeric_limits<SimTime>::min() + 2;
  edge.horizon = 1000;
  run_differential(edge, config_for(edge.horizon, true, true), 999, 500);
}

TEST(SanitizerDifferential, MidStreamFlushAndWindowTakes) {
  StreamShape shape;
  shape.horizon = 8;
  shape.take = 0.1;
  shape.flush = 0.03;  // Late arrivals after a flush must still drop.
  for (std::uint64_t seed = 400; seed < 460; ++seed) {
    run_differential(shape, config_for(shape.horizon, true, true), seed, 600);
    if (HasFatalFailure()) return;
  }
}

TEST(SanitizerDifferential, DedupAndTruncationGuardToggles) {
  StreamShape shape;
  shape.horizon = 5;
  std::size_t released = 0;
  for (std::uint64_t seed = 500; seed < 540; ++seed) {
    released += run_differential(
        shape, config_for(shape.horizon, seed % 2 == 0, seed % 4 < 2), seed,
        400);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(released, 0u);
}

}  // namespace
}  // namespace flowdiff::ingest
