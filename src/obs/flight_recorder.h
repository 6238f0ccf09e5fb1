// Flight recorder: a bounded, severity-tagged structured event log.
//
// Components that notice something worth remembering (the event queue
// crossing a depth watermark, the controller dropping a routable-less
// PacketIn, a fault injector firing, the monitor raising an alarm) append
// an event; the ring keeps the newest `capacity` of them, so a week-long
// run still holds the recent history when something finally goes wrong.
// The CLI folds the tail into `flowdiff report`, and
// install_abnormal_exit_dump() wires a last-gasp dump to stderr on
// std::terminate or a fatal signal.
//
// The fatal-signal path is async-signal-safe: record() pre-renders every
// event into a fixed ring of flat char lines, and the handler (installed
// with sigaction + SA_RESETHAND) emits that ring with write(2) only — no
// allocation, no stdio, no locks. std::terminate is not a signal context,
// so that path keeps the richer allocating render.
//
// record() is gated on obs::enabled() like every other obs mutation: one
// relaxed load and a branch when observability is off.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace flowdiff::obs {

enum class Severity : std::uint8_t { kDebug, kInfo, kWarn, kError };

[[nodiscard]] const char* to_string(Severity severity);

struct FlightEvent {
  std::uint64_t seq = 0;    ///< Append index since clear(); monotone.
  double wall_ms = 0.0;     ///< Wall clock since the recorder epoch.
  double sim_t = -1.0;      ///< Virtual seconds; < 0 when not applicable.
  Severity severity = Severity::kInfo;
  std::string component;
  std::string message;
  std::vector<std::pair<std::string, std::string>> fields;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 2048;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  static FlightRecorder& global();

  /// Appends one event (no-op while obs is disabled). `sim_t` is the
  /// virtual time in seconds when the producer has one, -1 otherwise.
  void record(Severity severity, std::string_view component,
              std::string_view message,
              std::vector<std::pair<std::string, std::string>> fields = {},
              double sim_t = -1.0);

  /// Retained events, oldest first.
  [[nodiscard]] std::vector<FlightEvent> events() const;
  /// Retained events at or above `min_severity`, oldest first.
  [[nodiscard]] std::vector<FlightEvent> events(Severity min_severity) const;

  /// Events ever recorded since clear().
  [[nodiscard]] std::uint64_t total() const;
  /// Events overwritten by ring wraparound.
  [[nodiscard]] std::uint64_t dropped() const;

  /// Drops retained events; also applies a new capacity when > 0.
  void clear(std::size_t new_capacity = 0);

  /// One line per retained event; `tail` > 0 keeps only the newest N.
  [[nodiscard]] std::string render(std::size_t tail = 0) const;

  /// Writes the pre-rendered tail of the newest events to `fd` using
  /// write(2) only — async-signal-safe (no allocation, no stdio, no
  /// locks), which is what the fatal-signal handler calls. Reads race
  /// record() by design; a torn line is acceptable in a dying process.
  void write_prerendered_tail(int fd) const noexcept;

  /// Dumps the global recorder's tail to stderr from std::terminate (full
  /// render; not a signal context) and fatal-signal handlers
  /// (SIGABRT/SIGSEGV/SIGFPE/SIGBUS/SIGILL; pre-rendered ring via write(2)
  /// only). Signal handlers are installed with sigaction + SA_RESETHAND,
  /// so the re-raise after the dump hits the default disposition.
  /// Idempotent.
  static void install_abnormal_exit_dump();

 private:
  /// Pre-rendered lines for the async-signal-safe dump: fixed flat
  /// storage, newest kPanicSlots events, each truncated to kPanicLine - 1
  /// chars and NUL-terminated.
  static constexpr std::size_t kPanicSlots = 64;
  static constexpr std::size_t kPanicLine = 232;

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::vector<FlightEvent> ring_;  ///< ring_[seq % capacity_].
  std::uint64_t total_ = 0;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  char panic_[kPanicSlots][kPanicLine] = {};
  std::atomic<std::uint64_t> panic_count_{0};
};

/// Renders one event the way render() does (shared with the run report).
[[nodiscard]] std::string render_flight_event(const FlightEvent& event);

}  // namespace flowdiff::obs
