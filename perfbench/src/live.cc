// The live path: bytes offered to an EventSource, MonitorManager, the
// per-tenant sanitizer and monitor, the verdict in MonitorManager::status.
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "experiment/corpus.h"
#include "flowdiff/incremental_model.h"
#include "flowdiff/monitor.h"
#include "flowdiff/monitor_manager.h"
#include "flowdiff/provenance.h"
#include "harness.h"
#include "ingest/event_source.h"
#include "ingest/sanitizer.h"
#include "openflow/log_io.h"

namespace perfbench {

using namespace flowdiff;

namespace {

constexpr std::size_t kChunk = 64 * 1024;

/// A file descriptor closed on scope exit.
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  [[nodiscard]] int get() const { return fd_; }
  void reset() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_;
};

/// Reports a failed system call and ends the process. _Exit, not exit:
/// the socket writer thread calls this too, and must not run static
/// destructors under the driving thread.
[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               std::strerror(errno));
  std::fflush(nullptr);
  std::_Exit(2);
}

bool write_all(int fd, const char* data, std::size_t size, bool socket) {
  while (size > 0) {
    const ssize_t n = socket ? ::send(fd, data, size, MSG_NOSIGNAL)
                             : ::write(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// The closed-loop generator of one pass and the source it feeds. It reads
/// the input in 64 KiB chunks and records when each chunk was offered.
///
/// File: the driving thread appends one chunk to the followed file before
/// every poll. Socket: a writer thread sends chunks over one unix-socket
/// connection, keeping at most kInFlight bytes beyond what the source has
/// consumed (the driving thread publishes that count after every poll).
/// Without this bound a writer that outpaces parsing keeps
/// SocketSource::poll draining until the input ends, so one poll would span
/// the whole pass. When a poll finds nothing, the driving thread waits for
/// the writer's next send instead of spinning: serve would sleep its poll
/// interval there, and a spinning loop would only measure how it contends
/// with the manager's workers for the host's cores.
class Generator {
 public:
  static constexpr std::uint64_t kInFlight = 2 * kChunk;

  Generator(const LiveInput& input, const std::string& work_dir)
      : input_(input),
        in_(::open(input.input_path.c_str(), O_RDONLY | O_CLOEXEC)),
        follow_path_(work_dir + "/follow.log"),
        socket_path_(work_dir + "/serve.sock"),
        buf_(kChunk) {
    if (in_.get() < 0) die("open " + input.input_path);
    struct stat st{};
    ::fstat(in_.get(), &st);
    offered_.reserve(static_cast<std::size_t>(st.st_size) / kChunk + 2);
    if (!input.socket) {
      follow_.emplace(::open(follow_path_.c_str(),
                             O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
      if (follow_->get() < 0) die("create " + follow_path_);
    }
  }

  ~Generator() {
    join();
    if (!input_.socket) ::unlink(follow_path_.c_str());
  }

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// The source serve would build for this input (timed as set-up).
  [[nodiscard]] std::unique_ptr<ingest::EventSource> make_source() const {
    if (!input_.socket) {
      ingest::FileTailConfig config;
      config.path = follow_path_;
      return std::make_unique<ingest::FileTailSource>(input_.tenants[0],
                                                      std::move(config));
    }
    ingest::SocketSourceConfig config;
    config.unix_path = socket_path_;
    auto socket = std::make_unique<ingest::SocketSource>(input_.tenants[0],
                                                         std::move(config));
    if (!socket->start()) die("listen " + socket_path_);
    return socket;
  }

  /// Starts offering: connects the socket writer.
  void start() {
    if (!input_.socket) return;
    writer_ = std::thread([this] {
      const double cpu0 = thread_cpu_s();
      Fd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, socket_path_.c_str(),
                   sizeof(addr.sun_path) - 1);
      if (fd.get() < 0 ||
          ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) != 0) {
        die("connect " + socket_path_);
      }
      while (offer(fd.get())) {
      }
      fd.reset();
      writer_cpu_ = thread_cpu_s() - cpu0;
      sent_.store(kClosed);
      sent_.notify_one();
    });
  }

  /// Before every poll: appends the next chunk to the followed file.
  void before_poll() {
    if (!input_.socket) more_ = offer(follow_->get());
  }

  /// After every poll; false once the source has consumed the whole input.
  /// `produced` is what the poll returned; after an empty poll on a socket
  /// this blocks until the writer has sent bytes the source has not read.
  bool after_poll(const ingest::EventSource& source, std::size_t produced) {
    if (!input_.socket) return more_;
    const std::uint64_t bytes = source.stats().bytes;
    if (consumed_.exchange(bytes) != bytes) consumed_.notify_one();
    if (source.stats().disconnects > 0 && source.idle()) return false;
    if (produced == 0) {
      for (std::uint64_t sent = sent_.load(); sent <= bytes;
           sent = sent_.load()) {
        sent_.wait(sent);
      }
    }
    return true;
  }

  void join() {
    if (writer_.joinable()) writer_.join();
  }

  /// CPU the writer thread used (valid after join()).
  [[nodiscard]] double writer_cpu_s() const { return writer_cpu_; }

  /// When the chunk holding byte offset `byte_end - 1` was offered.
  [[nodiscard]] Clock::time_point offered_at(std::uint64_t byte_end) const {
    const auto it = std::lower_bound(
        offered_.begin(), offered_.end(), byte_end,
        [](const auto& entry, std::uint64_t b) { return entry.first < b; });
    if (it != offered_.end()) return it->second;
    return offered_.empty() ? Clock::time_point{} : offered_.back().second;
  }

 private:
  /// Offers the next chunk to `out`; false at end of input.
  bool offer(int out) {
    const ssize_t n = ::read(in_.get(), buf_.data(), buf_.size());
    if (n < 0) die("read input");
    if (n == 0) return false;
    if (input_.socket) {
      const std::uint64_t end = offset_ + static_cast<std::uint64_t>(n);
      for (std::uint64_t seen = consumed_.load(); seen + kInFlight < end;
           seen = consumed_.load()) {
        consumed_.wait(seen);
      }
    }
    const Clock::time_point at = Clock::now();
    offset_ += static_cast<std::uint64_t>(n);
    offered_.emplace_back(offset_, at);
    if (!write_all(out, buf_.data(), static_cast<std::size_t>(n),
                   input_.socket)) {
      die("offer chunk");
    }
    if (input_.socket) {
      sent_.store(offset_);
      sent_.notify_one();
    }
    return true;
  }

  const LiveInput& input_;
  Fd in_;
  const std::string follow_path_;
  const std::string socket_path_;
  std::optional<Fd> follow_;
  std::vector<char> buf_;
  std::uint64_t offset_ = 0;
  bool more_ = true;
  std::vector<std::pair<std::uint64_t, Clock::time_point>> offered_;
  /// Bytes the source has read (published by the driving thread).
  std::atomic<std::uint64_t> consumed_{0};
  /// Bytes the writer has sent; kClosed once it closed the connection.
  static constexpr std::uint64_t kClosed = ~std::uint64_t{0};
  std::atomic<std::uint64_t> sent_{0};
  double writer_cpu_ = 0.0;
  std::thread writer_;  ///< Last: it uses every member above.
};

/// Per-window clocks of one pass, indexed like LiveInput::triggers.
struct WindowClocks {
  explicit WindowClocks(const LiveInput& input)
      : fed(input.triggers.size()),
        done(input.triggers.size()),
        slot(input.tenants.size()),
        next_trigger(input.tenants.size(), 0),
        seen(input.tenants.size(), 0) {
    for (std::size_t k = 0; k < input.triggers.size(); ++k) {
      const Trigger& t = input.triggers[k];
      if (slot[t.tenant].size() <= t.window) slot[t.tenant].resize(t.window + 1);
      slot[t.tenant][t.window] = k;
    }
  }

  /// Stamps the feed time of every trigger of `tenant` whose event index
  /// falls below `fed_after` (events fed so far, this call included).
  void note_fed(const LiveInput& input, std::size_t tenant,
                std::uint64_t fed_after, Clock::time_point at) {
    auto& w = next_trigger[tenant];
    while (w < slot[tenant].size() &&
           input.triggers[slot[tenant][w]].event < fed_after) {
      fed[slot[tenant][w]] = at;
      ++w;
    }
  }

  /// True when feeding `tenant`'s event number `event` completes the
  /// trigger of its next window (so only those feeds read the clock).
  [[nodiscard]] bool is_trigger(const LiveInput& input, std::size_t tenant,
                                std::uint64_t event) const {
    const std::size_t w = next_trigger[tenant];
    return w < slot[tenant].size() &&
           input.triggers[slot[tenant][w]].event == event;
  }

  void note_windows(std::size_t tenant, std::size_t windows,
                    Clock::time_point at) {
    while (seen[tenant] < windows && seen[tenant] < slot[tenant].size()) {
      done[slot[tenant][seen[tenant]]] = at;
      ++seen[tenant];
    }
  }

  std::vector<Clock::time_point> fed;
  std::vector<Clock::time_point> done;
  std::vector<std::vector<std::size_t>> slot;  ///< [tenant][window] -> k.
  std::vector<std::size_t> next_trigger;       ///< Per tenant, by window.
  std::vector<std::size_t> seen;               ///< Windows in status.
};

std::size_t tenant_of(const LiveInput& input, const of::ControlEvent& event) {
  if (!input.by_controller) return 0;
  if (event.controller.value >= input.tenants.size()) {
    die("controller id " + std::to_string(event.controller.value) +
        " has no tenant");
  }
  return event.controller.value;
}

/// Renders a snapshot's provenance ring the way
/// core::render_provenance_transcript renders a monitor's.
std::string provenance_transcript(const core::MonitorSnapshot& snap) {
  std::string out = "=== provenance transcript ===\n";
  out += "records=" + std::to_string(snap.provenance.size()) +
         " dropped=" + std::to_string(snap.provenance_dropped) + "\n";
  for (const auto& record : snap.provenance) {
    out += '\n';
    out += core::render_provenance_text(record, /*with_latency=*/false);
  }
  return out;
}

}  // namespace

LiveInput load_live_input(const std::string& dir) {
  const auto plan = Plan::parse(must_read(dir + "/plan.txt"));
  if (!plan) {
    std::fprintf(stderr, "perfbench: malformed %s/plan.txt\n", dir.c_str());
    std::exit(2);
  }
  LiveInput input;
  input.options = plan_options(*plan);
  input.workers = static_cast<int>(plan->get_int("workers"));
  input.socket = plan->get("source") == "socket";
  input.by_controller = plan->get_int("by_controller") != 0;
  input.tenants = plan_tenants(*plan);
  input.triggers = parse_triggers(must_read(dir + "/triggers.txt"));
  input.input_path = dir + "/input.log";
  return input;
}

LivePass run_live_pass(const LiveInput& input, const std::string& work_dir,
                       Recorder* rec) {
  LivePass pass;
  Generator generator(input, work_dir);
  WindowClocks clocks(input);
  std::vector<std::uint64_t> fed(input.tenants.size(), 0);
  std::vector<of::ControlEvent> batch;
  batch.reserve(4096);

  // --- set-up: the path serve builds -------------------------------------
  const Clock::time_point setup_start = Clock::now();
  const std::unique_ptr<ingest::EventSource> source = generator.make_source();
  core::ManagerConfig manager_config;
  manager_config.options = input.options;
  manager_config.workers = input.workers;
  core::MonitorManager manager(manager_config);
  for (const std::string& tenant : input.tenants) {
    manager.register_tenant(tenant);
  }
  const Clock::time_point start = Clock::now();
  pass.setup_s = seconds_between(setup_start, start);
  const double cpu_start = process_cpu_s();

  const auto check_status = [&](std::size_t tenant) {
    const Span span(rec, "status", window_group(tenant, clocks.seen[tenant]));
    const auto status = manager.status(input.tenants[tenant]);
    clocks.note_windows(tenant, status ? status->windows : 0, Clock::now());
  };

  // --- the closed loop: poll, feed, status, tick (serve's loop without its
  // idle sleep, which a saturated loop never reaches) ----------------------
  generator.start();
  for (bool more = true; more;) {
    generator.before_poll();
    batch.clear();
    {
      const Span span(rec, "poll", window_group(0, clocks.seen[0]));
      source->poll(batch);
    }
    more = generator.after_poll(*source, batch.size());
    if (input.by_controller) {
      for (const of::ControlEvent& event : batch) {
        const std::size_t t = tenant_of(input, event);
        const bool trigger = clocks.is_trigger(input, t, fed[t]);
        const Clock::time_point at =
            trigger ? Clock::now() : Clock::time_point{};
        {
          // serve --by-controller names the shard per event.
          const Span span(rec, "feed", window_group(t, clocks.seen[t]), true);
          manager.feed("ctrl" + std::to_string(event.controller.value),
                       event);
        }
        ++fed[t];
        if (trigger) clocks.note_fed(input, t, fed[t], at);
      }
      manager.tick();
      for (std::size_t t = 0; t < input.tenants.size(); ++t) check_status(t);
    } else {
      if (!batch.empty()) {
        const Clock::time_point at = Clock::now();
        {
          const Span span(rec, "feed", window_group(0, clocks.seen[0]), true);
          manager.feed(input.tenants[0], batch);
        }
        fed[0] += batch.size();
        clocks.note_fed(input, 0, fed[0], at);
        check_status(0);
      }
      manager.tick();
    }
  }
  const Clock::time_point stop_at = Clock::now();
  for (std::size_t t = 0; t < input.tenants.size(); ++t) {
    clocks.note_fed(input, t, fed[t] + 1, stop_at);
  }
  {
    const Span span(rec, "stop_all", 0, true);
    manager.stop_all();
  }
  for (std::size_t t = 0; t < input.tenants.size(); ++t) check_status(t);
  const Clock::time_point end = Clock::now();
  generator.join();
  pass.wall_s = seconds_between(start, end);
  pass.cpu_s = process_cpu_s() - cpu_start - generator.writer_cpu_s();
  pass.events = source->stats().events;

  for (std::size_t k = 0; k < input.triggers.size(); ++k) {
    if (clocks.done[k] == Clock::time_point{}) continue;  // Never showed up.
    const auto offered = generator.offered_at(input.triggers[k].byte_end);
    pass.verdict_ms.push_back(seconds_between(offered, clocks.done[k]) * 1e3);
    pass.wait_ms.push_back(seconds_between(clocks.fed[k], clocks.done[k]) *
                           1e3);
  }
  for (const std::string& tenant : input.tenants) {
    const auto snap = manager.snapshot(tenant);
    pass.transcripts.push_back(snap ? core::render_monitor_transcript(*snap)
                                    : std::string());
    pass.provenance.push_back(snap ? provenance_transcript(*snap)
                                   : std::string());
  }
  return pass;
}

// --- level 2 -------------------------------------------------------------------

namespace {

/// One tenant's monitor, spelled out as the layer calls SlidingMonitor makes
/// (sanitizer, windowing, incremental feed, finalize or model, diff,
/// provenance), each wrapped in a span.
class TenantLayers {
 public:
  TenantLayers(const TenantLayers&) = delete;
  TenantLayers& operator=(const TenantLayers&) = delete;

  TenantLayers(const core::MonitorOptions& options, std::size_t tenant,
               Recorder& rec, LiveLayers& out)
      : config_(options.monitor_config()),
        flowdiff_(config_.flowdiff),
        tenant_(tenant),
        rec_(rec),
        out_(out),
        sink_([this](const of::ControlEvent& e) { ingest(e); }) {
    if (config_.sanitize) sanitizer_.emplace(config_.ingest);
    if (config_.incremental) {
      inc_.emplace(flowdiff_.modeler().config(),
                   flowdiff_.modeler().shared_executor());
    }
  }

  void feed(const of::ControlEvent& event) {
    if (!sanitizer_) {
      ingest(event);
      return;
    }
    {
      const Span span(&rec_, "sanitize", group(), true);
      sanitizer_->push(event, sink_);
    }
    out_.sanitize_buffered_max =
        std::max<std::uint64_t>(out_.sanitize_buffered_max,
                                sanitizer_->buffered());
  }

  void flush() {
    if (sanitizer_) {
      const Span span(&rec_, "sanitize", group(), true);
      sanitizer_->flush(sink_);
    }
    if (window_start_ >= 0 && !current_.empty()) {
      close_window(current_.end_time() + 1);
    }
    if (sanitizer_) {
      out_.sanitize_fed += sanitizer_->total().fed;
      out_.sanitize_kept += sanitizer_->total().kept;
    }
  }

  [[nodiscard]] std::size_t windows() const { return windows_; }
  [[nodiscard]] std::size_t alarms() const { return alarms_; }

 private:
  [[nodiscard]] std::uint64_t group() const {
    return window_group(tenant_, windows_);
  }

  void ingest(const of::ControlEvent& event) {
    if (window_start_ < 0) window_start_ = event.ts;
    while (event.ts >= window_start_ + config_.window) {
      close_window(window_start_ + config_.window);
    }
    current_.append(event);
    if (inc_) {
      const Span span(&rec_, "incr_feed", group(), true);
      inc_->feed(state_, event);
    }
  }

  void close_window(SimTime window_end) {
    window_start_ = window_end;
    ingest::StreamQuality quality;
    if (sanitizer_) quality = sanitizer_->take_window_quality();
    if (current_.empty()) return;
    process(quality);
    current_.clear();
    if (inc_) state_.reset();
  }

  void process(const ingest::StreamQuality& quality) {
    const bool ready = inc_ && inc_->ready(state_);
    if (!ready) ++out_.not_ready_windows;
    std::optional<core::BehaviorModel> model;
    if (ready) {
      const Span span(&rec_, "finalize", group(), true, true);
      model = inc_->finalize(state_);
    } else {
      const Span span(&rec_, "model", group(), true, true);
      model = flowdiff_.model(current_);
    }
    if (!baseline_) {
      baseline_ = std::move(model);
      ++windows_;
      return;
    }
    std::optional<core::DiffReport> report;
    {
      const Span span(&rec_, "diff", group(), true, true);
      report = flowdiff_.diff(*baseline_, *model, config_.tasks, &quality);
    }
    if (!report->unknown.empty() || !report->suppressed.empty()) {
      const Span span(&rec_, "provenance", group(), true, true);
      static_cast<void>(
          core::build_provenance(*report, config_.provenance_top_k));
    }
    if (!report->clean()) ++alarms_;
    if (report->clean() && config_.rolling_baseline) baseline_ = std::move(model);
    ++windows_;
  }

  core::MonitorConfig config_;
  core::FlowDiff flowdiff_;
  std::size_t tenant_;
  Recorder& rec_;
  LiveLayers& out_;
  ingest::StreamSanitizer::Sink sink_;
  std::optional<ingest::StreamSanitizer> sanitizer_;
  std::optional<core::IncrementalModeler> inc_;
  core::IncrementalWindowState state_;
  of::ControlLog current_;
  SimTime window_start_ = -1;
  std::optional<core::BehaviorModel> baseline_;
  std::size_t windows_ = 0;
  std::size_t alarms_ = 0;
};

}  // namespace

LiveLayers run_live_layers(const LiveInput& input, const std::string& work_dir,
                           Recorder& rec) {
  LiveLayers out;
  Generator generator(input, work_dir);
  std::vector<std::unique_ptr<TenantLayers>> tenants;
  for (std::size_t t = 0; t < input.tenants.size(); ++t) {
    tenants.push_back(
        std::make_unique<TenantLayers>(input.options, t, rec, out));
  }
  std::vector<of::ControlEvent> batch;
  batch.reserve(4096);
  const std::unique_ptr<ingest::EventSource> source = generator.make_source();
  generator.start();
  for (bool more = true; more;) {
    generator.before_poll();
    batch.clear();
    {
      const Span span(&rec, "poll", 0, true);
      source->poll(batch);
    }
    more = generator.after_poll(*source, batch.size());
    ++out.polls;
    if (batch.empty()) ++out.empty_polls;
    for (const of::ControlEvent& event : batch) {
      tenants[tenant_of(input, event)]->feed(event);
    }
  }
  generator.join();
  for (auto& tenant : tenants) {
    tenant->flush();
    out.windows += tenant->windows();
    out.alarms += tenant->alarms();
    out.tenant_windows.push_back(tenant->windows());
    out.tenant_alarms.push_back(tenant->alarms());
  }
  out.events = source->stats().events;
  out.lines_rejected = source->stats().lines_rejected;
  return out;
}

// --- verdict comparison ----------------------------------------------------------

namespace {

struct Verdicts {
  std::vector<std::string> windows;  ///< Audit line per window.
  std::vector<std::string> alarms;   ///< Alarm report per alarmed window.
};

Verdicts split_transcript(const std::string& text) {
  Verdicts out;
  std::istringstream in(text);
  std::string line;
  std::string* block = nullptr;
  while (std::getline(in, line)) {
    if (line.rfind("--- alarm ", 0) == 0) {
      out.alarms.emplace_back();
      block = &out.alarms.back();
    } else if (block == nullptr && line.rfind("[", 0) == 0) {
      out.windows.push_back(line);
      continue;
    }
    if (block != nullptr) *block += line + "\n";
  }
  return out;
}

}  // namespace

std::pair<std::uint64_t, std::uint64_t> compare_transcripts(
    const std::string& reference, const std::string& actual) {
  const Verdicts ref = split_transcript(reference);
  const Verdicts act = split_transcript(actual);
  std::uint64_t failed = 0;
  std::size_t alarm = 0;
  for (std::size_t w = 0; w < ref.windows.size(); ++w) {
    bool ok = w < act.windows.size() && act.windows[w] == ref.windows[w];
    if (ref.windows[w].find(" ALARM: ") != std::string::npos) {
      ok = ok && alarm < act.alarms.size() && alarm < ref.alarms.size() &&
           act.alarms[alarm] == ref.alarms[alarm];
      ++alarm;
    }
    if (!ok) ++failed;
  }
  // Anything else that differs (header, extra windows) fails one verdict.
  if (failed == 0 && reference != actual) failed = 1;
  return {ref.windows.size(), failed};
}

// --- self-check ---------------------------------------------------------------

int self_check(const std::string& corpus_dir, const std::string& work_dir) {
  namespace fs = std::filesystem;
  std::vector<fs::path> logs;
  for (const auto& entry : fs::directory_iterator(corpus_dir)) {
    if (entry.path().extension() == ".log") logs.push_back(entry.path());
  }
  std::sort(logs.begin(), logs.end());
  int mismatches = 0;
  for (const fs::path& log : logs) {
    const auto corpus_case = exp::parse_corpus_case(must_read(log.string()));
    if (!corpus_case) {
      std::fprintf(stderr, "perfbench: self-check: unparseable %s\n",
                   log.c_str());
      ++mismatches;
      continue;
    }
    const core::MonitorConfig& config = corpus_case->config;
    LiveInput input;
    input.options.window = config.window;
    input.options.rolling_baseline = config.rolling_baseline;
    input.options.sanitize = config.sanitize;
    if (config.sanitize) input.options.lateness = config.ingest.lateness_horizon;
    input.options.services = config.flowdiff.model.special_nodes;
    input.tenants = {log.stem().string()};
    input.input_path = log.string();
    const LivePass pass = run_live_pass(input, work_dir, nullptr);

    fs::path golden = log;
    golden.replace_extension(".golden");
    fs::path provenance = log;
    provenance.replace_extension(".provenance");
    const bool transcript_ok = pass.transcripts[0] == must_read(golden);
    const bool provenance_ok = pass.provenance[0] == must_read(provenance);
    std::fprintf(stderr, "perfbench: self-check %-20s transcript %s, "
                 "provenance %s\n", log.stem().c_str(),
                 transcript_ok ? "ok" : "MISMATCH",
                 provenance_ok ? "ok" : "MISMATCH");
    mismatches += (transcript_ok ? 0 : 1) + (provenance_ok ? 0 : 1);
  }
  if (logs.empty()) {
    std::fprintf(stderr, "perfbench: self-check: no corpus in %s\n",
                 corpus_dir.c_str());
    return 1;
  }
  return mismatches;
}

}  // namespace perfbench
