// The benchmark's paths: the live serve path (source -> MonitorManager ->
// verdict), its layer-by-layer replay, and the offline `flowdiff diff` path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "flowdiff/monitor_options.h"

namespace perfbench {

/// Writes a workload's inputs and references for one seed into `dir`.
int generate(const std::string& workload, std::uint64_t seed,
             const std::string& dir);

// --- live path ---------------------------------------------------------------

struct LiveInput {
  flowdiff::core::MonitorOptions options;
  int workers = 0;        ///< MonitorManager pool size.
  bool socket = false;    ///< AF_UNIX SocketSource instead of a file tail.
  bool by_controller = false;
  std::vector<std::string> tenants;
  std::vector<Trigger> triggers;
  std::string input_path;
};

[[nodiscard]] LiveInput load_live_input(const std::string& dir);

/// What one pass over the input produced. Times cover the interval from
/// the first offered byte until stop_all returned.
struct LivePass {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< Process CPU minus the generator thread's.
  std::uint64_t events = 0;
  std::vector<double> verdict_ms;  ///< Trigger offered -> status shows it.
  std::vector<double> wait_ms;     ///< Trigger fed -> status shows it.
  std::vector<std::string> transcripts;  ///< Per tenant, after the pass.
  std::vector<std::string> provenance;
};

/// One serve session over the whole input: builds the path the way
/// `flowdiff serve` does (source, manager, tenants), offers the input in
/// 64 KiB chunks from a generator (appended to the followed file, or sent
/// by a writer thread over one unix-socket connection), and polls, feeds,
/// and checks status until stop_all. Level-1 spans go to `rec` when set.
[[nodiscard]] LivePass run_live_pass(const LiveInput& input,
                                     const std::string& work_dir,
                                     Recorder* rec);

struct LiveLayers {
  std::uint64_t events = 0;
  std::uint64_t polls = 0;
  std::uint64_t empty_polls = 0;
  std::uint64_t lines_rejected = 0;
  std::uint64_t windows = 0;
  std::uint64_t alarms = 0;
  std::uint64_t not_ready_windows = 0;
  std::uint64_t sanitize_buffered_max = 0;
  std::uint64_t sanitize_fed = 0;
  std::uint64_t sanitize_kept = 0;
  std::vector<std::size_t> tenant_windows;
  std::vector<std::size_t> tenant_alarms;
};

/// Level 2: the same input through the individual layer calls (poll,
/// sanitizer push/flush, incremental feed, finalize or model, diff,
/// provenance) in the monitor's order, each in an allocation-counting span.
[[nodiscard]] LiveLayers run_live_layers(const LiveInput& input,
                                         const std::string& work_dir,
                                         Recorder& rec);

/// Verdicts that are missing or differ from the reference: transcripts are
/// compared window by window (each window's audit line plus, for alarmed
/// windows, its alarm report). Returns {expected, failed}.
[[nodiscard]] std::pair<std::uint64_t, std::uint64_t> compare_transcripts(
    const std::string& reference, const std::string& actual);

/// Replays every committed corpus capture as one tenant through
/// run_live_pass and byte-compares transcript and provenance with the
/// committed goldens. Returns the number of mismatches.
int self_check(const std::string& corpus_dir, const std::string& work_dir);

// --- offline path --------------------------------------------------------------

struct OfflineInput {
  std::vector<std::string> segments;  ///< Paths; segment 0 is the baseline.
  std::vector<std::string> references;  ///< references[k] for segment k.
};

[[nodiscard]] OfflineInput load_offline_input(const std::string& dir);

struct Diagnosis {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t events = 0;
  std::string report;
};

/// One in-process `flowdiff diff seg0 seg<k>`: builds the facade, then
/// read_file, parse x2, model x2, diff, render. With `rec`, every call is
/// a span; `count_allocs` arms allocation counting inside them.
[[nodiscard]] Diagnosis run_diagnosis(const OfflineInput& input,
                                      std::size_t k, Recorder* rec,
                                      bool count_allocs);

}  // namespace perfbench
