// Control-plane messages exchanged between switches and the controller.
//
// FlowDiff builds all of its behavioral models from a timestamped log of
// these messages captured at the controller (the paper's L1/L2 logs).
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "openflow/flow_key.h"
#include "openflow/match.h"
#include "util/ids.h"
#include "util/time.h"

namespace flowdiff::of {

/// Switch -> controller: a packet missed every flow-table entry.
struct PacketIn {
  SwitchId sw;
  PortId in_port;
  FlowKey key;
  /// Simulator-wide id of the flow occurrence that raised this miss; lets
  /// the log analysis group the PacketIns of one flow across switches the
  /// same way a real analysis groups them by 5-tuple + time proximity.
  std::uint64_t flow_uid = 0;

  friend bool operator==(const PacketIn&, const PacketIn&) = default;
};

/// Controller -> switch: install a flow entry.
struct FlowMod {
  SwitchId sw;
  FlowMatch match;
  PortId out_port;
  SimDuration idle_timeout = 0;
  SimDuration hard_timeout = 0;
  FlowKey key;              ///< Flow that triggered the install.
  std::uint64_t flow_uid = 0;

  friend bool operator==(const FlowMod&, const FlowMod&) = default;
};

/// Controller -> switch: release the buffered packet.
struct PacketOut {
  SwitchId sw;
  PortId out_port;
  FlowKey key;
  std::uint64_t flow_uid = 0;

  friend bool operator==(const PacketOut&, const PacketOut&) = default;
};

enum class RemovedReason : std::uint8_t { kIdleTimeout, kHardTimeout, kDelete };

/// Switch -> controller: a flow entry expired; carries the entry counters.
struct FlowRemoved {
  SwitchId sw;
  FlowMatch match;
  FlowKey key;  ///< Representative flow for microflow entries.
  RemovedReason reason = RemovedReason::kIdleTimeout;
  SimDuration duration = 0;     ///< Lifetime of the entry.
  std::uint64_t byte_count = 0;
  std::uint64_t packet_count = 0;

  friend bool operator==(const FlowRemoved&, const FlowRemoved&) = default;
};

/// Switch -> controller keepalive; used for controller liveness modeling.
struct EchoReply {
  SwitchId sw;

  friend bool operator==(const EchoReply&, const EchoReply&) = default;
};

/// Switch -> controller: one flow entry's counters, in answer to a stats
/// poll. The paper notes the controller "can also poll flow counters on
/// switches to learn utilization"; these records carry that signal.
struct FlowStatsReply {
  SwitchId sw;
  FlowMatch match;
  FlowKey key;
  SimDuration age = 0;          ///< Entry lifetime at poll time.
  std::uint64_t byte_count = 0;
  std::uint64_t packet_count = 0;

  friend bool operator==(const FlowStatsReply&,
                         const FlowStatsReply&) = default;
};

using ControlMessage = std::variant<PacketIn, FlowMod, PacketOut,
                                    FlowRemoved, EchoReply, FlowStatsReply>;

/// A control message with the controller-side timestamp at which it was
/// received (switch -> controller) or sent (controller -> switch).
struct ControlEvent {
  SimTime ts = 0;
  ControllerId controller;
  ControlMessage msg;

  [[nodiscard]] std::string to_string() const;

  /// Field-wise identity. serialize_event writes every field, so two
  /// events compare equal exactly when their log lines do.
  friend bool operator==(const ControlEvent&, const ControlEvent&) = default;
};

[[nodiscard]] const char* message_name(const ControlMessage& msg);

}  // namespace flowdiff::of
