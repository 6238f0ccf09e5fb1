// Shared pieces of the FlowDiff benchmark harness: clocks, the on-disk
// layout of a generated workload, percentile helpers, the span recorder and
// the allocation counter.
//
// A workload directory (one per workload and seed, written by `gen`) holds:
//   plan.txt          key=value lines describing the path to build;
//   input.log         live workloads: the byte stream offered to the source;
//   triggers.txt      live workloads: "tenant window event byte_end" per
//                     window, the trigger event of each verdict;
//   ref_<tenant>.transcript
//                     live workloads: the oracle's verdict transcript;
//   seg<k>.log        offline workload: 20 s capture segments;
//   ref_<k>.report    offline workload: reference report for seg0 vs seg<k>.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "flowdiff/monitor_options.h"

namespace perfbench {

// --- clocks ----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// User + system CPU seconds of the whole process.
[[nodiscard]] double process_cpu_s();
/// User + system CPU seconds of the calling thread.
[[nodiscard]] double thread_cpu_s();
/// Peak resident set of the process, in MB.
[[nodiscard]] double peak_rss_mb();
/// Best-of-three time of a fixed synthetic workload, in ms: the host's
/// current speed.
[[nodiscard]] double probe_ms();

// --- plan ------------------------------------------------------------------

/// The key=value description of a generated workload (plan.txt).
struct Plan {
  std::map<std::string, std::string> values;

  [[nodiscard]] std::string get(const std::string& key) const;
  [[nodiscard]] long long get_int(const std::string& key) const;
  void set(const std::string& key, const std::string& value) {
    values[key] = value;
  }
  void set(const std::string& key, long long value) {
    values[key] = std::to_string(value);
  }
  [[nodiscard]] std::string render() const;
  static std::optional<Plan> parse(const std::string& text);
};

/// Monitor options a plan's shards run with (serve's defaults plus the
/// plan's window, sanitizer and service IPs).
[[nodiscard]] flowdiff::core::MonitorOptions plan_options(const Plan& plan);

/// "ctrl<N>" for socket tenants demultiplexed by controller id (the name
/// `serve --by-controller` gives them), the plan's tenant otherwise.
[[nodiscard]] std::vector<std::string> plan_tenants(const Plan& plan);

struct Trigger {
  std::size_t tenant = 0;
  std::size_t window = 0;
  std::uint64_t event = 0;     ///< Index into the tenant's raw stream.
  std::uint64_t byte_end = 0;  ///< Offset just past the trigger's line.
};

[[nodiscard]] std::vector<Trigger> parse_triggers(const std::string& text);

/// Reads a whole file; exits the process with a message when it cannot.
[[nodiscard]] std::string must_read(const std::string& path);
void must_write(const std::string& path, const std::string& text);

// --- statistics --------------------------------------------------------------

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Minimal JSON object writer for the harness's result lines.
class JsonLine {
 public:
  void add(const std::string& key, double value);
  void add(const std::string& key, std::uint64_t value);
  void add(const std::string& key, const std::string& value);
  void add_raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

// --- spans -----------------------------------------------------------------

/// In-memory span recorder. Every span feeds a per-name aggregate (calls,
/// inclusive and self seconds, allocations, a per-call duration sample);
/// the first kMaxKept spans are also kept verbatim and written out by
/// write() when the run ends. Single-threaded: only the harness's driving
/// thread records spans.
class Recorder {
 public:
  static constexpr std::size_t kMaxKept = 200000;

  struct Aggregate {
    std::uint64_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    std::uint64_t allocs = 0;  ///< Self allocations (children excluded).
    std::vector<double> durations_ms;  ///< Only when sampling is on.
  };

  /// Opens a span; `group` identifies the window it serves
  /// (tenant << 32 | window index).
  void open(const char* name, std::uint64_t group, bool count_allocs,
            bool sample);
  void close();
  /// Writes kept spans as JSON lines (id, parent, name, group, start/end
  /// in seconds since the recorder's first span).
  void write(const std::string& path) const;

  [[nodiscard]] std::map<std::string, Aggregate> aggregates() const;

 private:
  struct Open {
    const char* name;
    std::uint64_t id;
    std::uint64_t group;
    Clock::time_point start;
    double child_s;
    std::uint64_t allocs_before;
    std::uint64_t child_allocs;
    bool count_allocs;
    bool sample;
  };
  struct Kept {
    std::uint64_t id, parent, group;
    const char* name;
    double start_s, end_s;
  };

  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  /// Keyed by the name literal's address: a linear scan over a dozen
  /// pointers is cheaper than a string-keyed map on per-event spans.
  std::vector<std::pair<const char*, Aggregate>> aggregates_;
  std::uint64_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
  std::optional<Clock::time_point> epoch_;
};

/// RAII span on an optional recorder (null: no span, no cost).
class Span {
 public:
  Span(Recorder* rec, const char* name, std::uint64_t group = 0,
       bool count_allocs = false, bool sample = false)
      : rec_(rec) {
    if (rec_ != nullptr) rec_->open(name, group, count_allocs, sample);
  }
  ~Span() {
    if (rec_ != nullptr) rec_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Recorder* rec_;
};

[[nodiscard]] inline std::uint64_t window_group(std::size_t tenant,
                                                std::size_t window) {
  return (static_cast<std::uint64_t>(tenant) << 32) | window;
}

// --- allocation counting -----------------------------------------------------

/// Allocations made by the calling thread while armed. The harness replaces
/// the global operator new; it counts only while the calling thread's arm
/// depth is positive, and spans opened with count_allocs raise that depth
/// for their duration.
[[nodiscard]] std::uint64_t thread_allocs();
/// Sets the calling thread's arm depth to 0 and returns the old depth (the
/// recorder's own bookkeeping must not count against a layer).
[[nodiscard]] int suspend_alloc_counting();
void resume_alloc_counting(int depth);

}  // namespace perfbench
