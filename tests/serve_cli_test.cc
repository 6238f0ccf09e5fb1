// `flowdiff serve` end to end: fork/exec of the real binary tailing live
// sources. Pins the acceptance bar for the daemon: a single-tenant serve
// over a corpus capture is byte-identical to `flowdiff monitor` (the
// committed golden transcript); two concurrent sources (file-follow +
// socket) demux into independent tenants served over /tenants; SIGTERM
// flushes every shard's final window.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "experiment/corpus.h"
#include "openflow/log_io.h"
#include "http_test_util.h"

namespace flowdiff {
namespace {

namespace fs = std::filesystem;
using flowdiff::testing::HttpResult;
using flowdiff::testing::eventually;
using flowdiff::testing::http_get;

struct Corpus {
  explicit Corpus(const std::string& stem) {
    log_path = fs::path(FLOWDIFF_CORPUS_DIR) / (stem + ".log");
    const auto text = of::read_file(log_path.string());
    if (!text) ADD_FAILURE() << "unreadable: " << log_path;
    raw = *text;
    const auto parsed = exp::parse_corpus_case(raw);
    if (!parsed) ADD_FAILURE() << "unparseable: " << log_path;
    corpus_case = *parsed;
    fs::path golden_path = log_path;
    golden_path.replace_extension(".golden");
    const auto golden_text = of::read_file(golden_path.string());
    if (!golden_text) ADD_FAILURE() << "unreadable: " << golden_path;
    golden = *golden_text;
  }

  /// Writes the header's service IPs one per line for --services.
  [[nodiscard]] std::string write_services(const fs::path& path) const {
    std::string text;
    for (const Ipv4 ip : corpus_case.config.flowdiff.model.special_nodes) {
      text += ip.to_string() + "\n";
    }
    EXPECT_TRUE(of::write_file(path.string(), text));
    return path.string();
  }

  [[nodiscard]] std::string window_seconds() const {
    return std::to_string(
        static_cast<long long>(to_seconds(corpus_case.config.window)));
  }

  fs::path log_path;
  std::string raw;
  exp::CorpusCase corpus_case;
  std::string golden;
};

struct Child {
  pid_t pid = -1;
  int out_fd = -1;
  std::string seen;  ///< stdout consumed so far.

  ~Child() {
    if (out_fd >= 0) ::close(out_fd);
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
  }

  /// Reads stdout until `needle` appears (timeout -> empty). Returns the
  /// full line containing it.
  std::string wait_for_line(const std::string& needle) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      const std::size_t at = seen.find(needle);
      if (at != std::string::npos) {
        const std::size_t eol = seen.find('\n', at);
        if (eol != std::string::npos) {
          const std::size_t bol = seen.rfind('\n', at);
          const std::size_t begin = bol == std::string::npos ? 0 : bol + 1;
          return seen.substr(begin, eol - begin);
        }
      }
      char buf[512];
      const ssize_t n = ::read(out_fd, buf, sizeof(buf));
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return {};
      if (n <= 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
      if (n > 0) seen.append(buf, static_cast<std::size_t>(n));
    }
    return {};
  }

  /// Reaps the child; -1 if it never exits.
  int wait_exit(int timeout_s = 90) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(timeout_s);
    int status = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      // Keep draining stdout so the child never blocks on a full pipe.
      char buf[512];
      const ssize_t n = ::read(out_fd, buf, sizeof(buf));
      if (n > 0) seen.append(buf, static_cast<std::size_t>(n));
      const pid_t waited = ::waitpid(pid, &status, WNOHANG);
      if (waited == pid) {
        pid = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -2;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return -1;
  }
};

/// In a forked child: execs `flowdiff <args>`; never returns.
[[noreturn]] void exec_cli(std::vector<std::string> args) {
  args.insert(args.begin(), "flowdiff");
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (auto& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  ::execv(FLOWDIFF_CLI_PATH, argv.data());
  _exit(127);
}

/// fork/execs `flowdiff serve <args>` with stdout piped back (non-blocking
/// so wait_for_line can poll).
Child spawn_serve(const std::vector<std::string>& args) {
  Child child;
  int out_pipe[2];
  if (::pipe(out_pipe) != 0) return child;
  const pid_t pid = ::fork();
  if (pid < 0) return child;
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    std::vector<std::string> serve_args{"serve"};
    serve_args.insert(serve_args.end(), args.begin(), args.end());
    exec_cli(std::move(serve_args));
  }
  ::close(out_pipe[1]);
  child.pid = pid;
  child.out_fd = out_pipe[0];
  // Non-blocking stdout: wait_for_line polls.
  ::fcntl(child.out_fd, F_SETFL, O_NONBLOCK);
  return child;
}

struct CliRun {
  int exit_code = -1;
  std::string err;  ///< Everything the run wrote to stderr.
};

/// Runs `flowdiff <args>` to completion with stdout discarded and stderr
/// captured. A nonzero `kill_after_s` arms alarm(2) in the child (it
/// survives exec), so a run that never exits dies by SIGALRM and reports
/// exit_code -1 instead of hanging the test.
CliRun run_cli(const std::vector<std::string>& args,
               unsigned kill_after_s = 0) {
  CliRun run;
  int err_pipe[2];
  if (::pipe(err_pipe) != 0) return run;
  const pid_t pid = ::fork();
  if (pid < 0) return run;
  if (pid == 0) {
    const int null_fd = ::open("/dev/null", O_WRONLY);
    ::dup2(null_fd, STDOUT_FILENO);
    ::dup2(err_pipe[1], STDERR_FILENO);
    ::close(err_pipe[0]);
    ::close(err_pipe[1]);
    if (kill_after_s > 0) ::alarm(kill_after_s);
    exec_cli(args);
  }
  ::close(err_pipe[1]);
  char buf[512];
  ssize_t n = 0;
  while ((n = ::read(err_pipe[0], buf, sizeof(buf))) > 0) {
    run.err.append(buf, static_cast<std::size_t>(n));
  }
  ::close(err_pipe[0]);
  int status = 0;
  if (::waitpid(pid, &status, 0) == pid && WIFEXITED(status)) {
    run.exit_code = WEXITSTATUS(status);
  }
  return run;
}

std::uint16_t parse_trailing_port(const std::string& line) {
  const std::size_t colon = line.rfind(':');
  if (colon == std::string::npos) return 0;
  return static_cast<std::uint16_t>(std::atoi(line.c_str() + colon + 1));
}

void send_text(std::uint16_t port, const std::string& text) {
  const int fd = flowdiff::testing::http_connect(port);
  ASSERT_GE(fd, 0);
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::send(fd, text.data() + off, text.size() - off, 0);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
  ::close(fd);
}

std::optional<HttpResult> get_with_retry(std::uint16_t port,
                                         const std::string& target) {
  std::optional<HttpResult> result;
  eventually([&] {
    result = http_get(port, target);
    return result.has_value();
  });
  return result;
}

TEST(ServeCli, SingleTenantFollowIsByteIdenticalToMonitorGolden) {
  const Corpus corpus("steady");
  const fs::path dir =
      fs::path(::testing::TempDir()) / "serve_single_tenant";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string services = corpus.write_services(dir / "services.txt");
  const fs::path transcripts = dir / "transcripts";

  // The corpus capture tails verbatim: its '#' header lines are comments
  // to the file parser and to the tail source alike.
  Child child = spawn_serve({"--follow", corpus.log_path.string() + "@t0",
                             "--window", corpus.window_seconds(),
                             "--services", services, "--transcripts",
                             transcripts.string(), "--poll-ms", "20",
                             "--exit-after-idle", "0.5"});
  ASSERT_GT(child.pid, 0);
  ASSERT_FALSE(child.wait_for_line("-> tenant t0").empty());
  EXPECT_EQ(child.wait_exit(), 0) << "steady corpus must serve cleanly";

  const auto transcript =
      of::read_file((transcripts / "t0.transcript").string());
  ASSERT_TRUE(transcript.has_value());
  EXPECT_EQ(*transcript, corpus.golden)
      << "serve over a followed file drifted from `flowdiff monitor`";
}

TEST(ServeCli, AlarmedTenantExitsNonZero) {
  const Corpus corpus("slowdown");
  const fs::path dir = fs::path(::testing::TempDir()) / "serve_alarmed";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string services = corpus.write_services(dir / "services.txt");

  Child child = spawn_serve({"--follow", corpus.log_path.string() + "@t0",
                             "--window", corpus.window_seconds(),
                             "--services", services, "--poll-ms", "20",
                             "--exit-after-idle", "0.5"});
  ASSERT_GT(child.pid, 0);
  EXPECT_EQ(child.wait_exit(), 1);
  EXPECT_NE(child.seen.find("alarms"), std::string::npos);
}

TEST(ServeCli, FileAndSocketTenantsDemuxServeTelemetryAndFlushOnSigterm) {
  const Corpus corpus("steady");
  const fs::path dir = fs::path(::testing::TempDir()) / "serve_two_tenant";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string services = corpus.write_services(dir / "services.txt");
  const fs::path transcripts = dir / "transcripts";

  // Tenant "filet" follows a file that grows after startup; tenant
  // "sockt" receives the same capture over TCP. Two concurrent live
  // sources, one daemon.
  const fs::path grown = dir / "grown.log";
  ASSERT_TRUE(of::write_file(grown.string(), ""));

  Child child = spawn_serve(
      {"--follow", grown.string() + "@filet", "--socket",
       "127.0.0.1:0@sockt", "--window", corpus.window_seconds(),
       "--services", services, "--transcripts", transcripts.string(),
       "--poll-ms", "20", "--listen", "127.0.0.1:0"});
  ASSERT_GT(child.pid, 0);

  const std::string plane_line = child.wait_for_line("listening on http://");
  ASSERT_FALSE(plane_line.empty()) << "no telemetry announcement";
  const std::uint16_t plane_port = parse_trailing_port(plane_line);
  ASSERT_NE(plane_port, 0);
  const std::string sock_line = child.wait_for_line("-> tenant sockt");
  ASSERT_FALSE(sock_line.empty()) << "no socket source announcement";
  const std::size_t arrow = sock_line.find(" -> ");
  ASSERT_NE(arrow, std::string::npos);
  const std::uint16_t sock_port =
      parse_trailing_port(sock_line.substr(0, arrow));
  ASSERT_NE(sock_port, 0);

  // Feed both tenants the full capture concurrently.
  ASSERT_TRUE(of::write_file(grown.string(), corpus.raw));
  send_text(sock_port, corpus.raw);

  // Wait until both shards ingested everything (the registry reports
  // accepted-event counts).
  const std::string want =
      "\"events\":" + std::to_string(corpus.corpus_case.events.size());
  const bool both_fed = eventually([&] {
    const auto tenants = http_get(plane_port, "/tenants");
    if (!tenants) return false;
    std::size_t count = 0;
    for (std::size_t at = tenants->body.find(want);
         at != std::string::npos; at = tenants->body.find(want, at + 1)) {
      ++count;
    }
    return count >= 2;
  });
  ASSERT_TRUE(both_fed) << "shards never ingested the full capture";

  // Per-tenant routes answer while the daemon is live.
  const auto health = get_with_retry(plane_port, "/tenants/filet/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);
  const auto aggregate = get_with_retry(plane_port, "/healthz");
  ASSERT_TRUE(aggregate.has_value());
  EXPECT_EQ(aggregate->status, 200) << "clean shards, aggregate must be ok";
  const auto missing = get_with_retry(plane_port, "/tenants/nosuch/healthz");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, 404);

  // SIGTERM: flush both final windows, write both transcripts, exit clean.
  ASSERT_EQ(::kill(child.pid, SIGTERM), 0);
  EXPECT_EQ(child.wait_exit(), 0);
  for (const char* tenant : {"filet", "sockt"}) {
    const auto transcript = of::read_file(
        (transcripts / (std::string(tenant) + ".transcript")).string());
    ASSERT_TRUE(transcript.has_value()) << tenant;
    EXPECT_EQ(*transcript, corpus.golden)
        << tenant << " transcript drifted from the single-tenant golden";
  }
}

TEST(ServeCli, RejectsIncoherentKnobsInsteadOfClamping) {
  // The MonitorOptions contract surfaces through serve exactly as through
  // monitor: lateness without sanitize is an error, not a silent fix-up.
  Child child = spawn_serve({"--follow", "/dev/null@t0", "--window", "10",
                             "--lateness", "20", "--sanitize"});
  ASSERT_GT(child.pid, 0);
  EXPECT_EQ(child.wait_exit(), 2);
}

TEST(CliFlags, WorkersMustBeANonNegativeInt) {
  const std::string log = Corpus("steady").log_path.string();
  for (const char* bad : {"abc", "-3", "99999999999"}) {
    for (const std::string command : {"diff", "serve"}) {
      std::vector<std::string> args{command};
      if (command == "diff") {
        args.insert(args.end(), {log, log});
      } else {
        args.insert(args.end(), {"--follow", log + "@t0"});
      }
      args.push_back(std::string("--workers=") + bad);
      const CliRun run = run_cli(args);
      EXPECT_EQ(run.exit_code, 2) << command << " --workers=" << bad;
      EXPECT_NE(run.err.find("--workers"), std::string::npos)
          << command << " --workers=" << bad << ": " << run.err;
    }
  }
  // A valid count still parses: a self-diff is clean.
  EXPECT_EQ(run_cli({"diff", log, log, "--workers=2"}).exit_code, 0);
}

TEST(CliFlags, NumericFlagsRejectGarbageAndNonFinite) {
  // Every numeric flag goes through one parser: garbage, trailing junk,
  // signs, non-finite and out-of-range values exit 2 naming the flag,
  // instead of casting inf/nan to an integer or silently reading 0.
  const std::string log = Corpus("steady").log_path.string();
  constexpr unsigned kKillAfterS = 30;
  const char* bad_values[] = {"inf", "nan", "1e300", "abc", "10x", "-1", ""};
  for (const char* flag : {"--window", "--lateness"}) {
    for (const char* bad : bad_values) {
      const CliRun run = run_cli({"monitor", log, flag, bad}, kKillAfterS);
      EXPECT_EQ(run.exit_code, 2) << "monitor " << flag << " '" << bad << "'";
      EXPECT_NE(run.err.find(flag), std::string::npos)
          << "monitor " << flag << " '" << bad << "': " << run.err;
    }
  }
  for (const char* flag : {"--poll-ms", "--evict-idle", "--exit-after-idle"}) {
    for (const char* bad : bad_values) {
      // A valid idle exit first, so a flag that is silently accepted ends
      // the run (exit 0) instead of serving until killed.
      const CliRun run = run_cli({"serve", "--follow", "/dev/null@t0",
                                  "--exit-after-idle", "0.2", flag, bad},
                                 kKillAfterS);
      EXPECT_EQ(run.exit_code, 2) << "serve " << flag << " '" << bad << "'";
      EXPECT_NE(run.err.find(flag), std::string::npos)
          << "serve " << flag << " '" << bad << "': " << run.err;
    }
  }
  // Valid values still parse, fractional seconds included: the run ends
  // in a verdict (0 clean, 1 alarms), not a usage error.
  const int monitor_rc =
      run_cli({"monitor", log, "--window", "10.5", "--lateness", "0.5"},
              kKillAfterS)
          .exit_code;
  EXPECT_TRUE(monitor_rc == 0 || monitor_rc == 1) << monitor_rc;
  EXPECT_EQ(run_cli({"serve", "--follow", "/dev/null@t0", "--poll-ms", "10",
                     "--evict-idle", "0.5", "--exit-after-idle", "0.2"},
                    kKillAfterS)
                .exit_code,
            0);
}

TEST(CliFlags, ServeFlagsTakeEqualsForm) {
  // Serve's own flags parse like the shared monitor flags: --flag=VALUE is
  // the same flag as --flag VALUE, down to the transcript it produces.
  const Corpus corpus("steady");
  const fs::path dir = fs::path(::testing::TempDir()) / "serve_equals_form";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string services = corpus.write_services(dir / "services.txt");
  constexpr unsigned kKillAfterS = 60;
  for (const bool equals : {false, true}) {
    const fs::path transcripts = dir / (equals ? "equals" : "two_token");
    std::vector<std::string> args{"serve"};
    const auto flag = [&](const std::string& name, const std::string& value) {
      if (equals) {
        args.push_back(name + "=" + value);
      } else {
        args.insert(args.end(), {name, value});
      }
    };
    flag("--follow", corpus.log_path.string() + "@t0");
    flag("--window", corpus.window_seconds());
    flag("--services", services);
    flag("--transcripts", transcripts.string());
    flag("--poll-ms", "20");
    flag("--evict-idle", "0");
    flag("--exit-after-idle", "0.5");
    const CliRun run = run_cli(args, kKillAfterS);
    EXPECT_EQ(run.exit_code, 0) << "equals=" << equals << ": " << run.err;
    const auto transcript =
        of::read_file((transcripts / "t0.transcript").string());
    ASSERT_TRUE(transcript.has_value()) << "equals=" << equals;
    EXPECT_EQ(*transcript, corpus.golden) << "equals=" << equals;
  }
  EXPECT_EQ(run_cli({"serve", "--follow=/dev/null@t0",
                     "--exit-after-idle=0.2"},
                    kKillAfterS)
                .exit_code,
            0);
  // A bare --follow (no value) is still a usage error naming the flag.
  const CliRun bare =
      run_cli({"serve", "--exit-after-idle=0.2", "--follow"}, kKillAfterS);
  EXPECT_EQ(bare.exit_code, 2);
  EXPECT_NE(bare.err.find("--follow"), std::string::npos) << bare.err;
}

TEST(CliFlags, MonitorAndReportNameUnknownFlags) {
  // --incremental was a no-op alias of the default and is gone; any other
  // leftover "--" argument is named the same way instead of falling
  // through to a bare usage dump.
  const std::string log = Corpus("steady").log_path.string();
  for (const std::string command : {"monitor", "report"}) {
    for (const char* flag : {"--incremental", "--no-such-knob"}) {
      const CliRun run = run_cli({command, log, flag, "2"});
      EXPECT_EQ(run.exit_code, 2) << command << " " << flag;
      EXPECT_NE(run.err.find("unknown " + command + " argument: " + flag),
                std::string::npos)
          << run.err;
    }
  }
}

TEST(CliFlags, MonitorAndReportRejectPositiveWorkers) {
  const std::string log = Corpus("steady").log_path.string();
  for (const std::string command : {"monitor", "report"}) {
    const CliRun run = run_cli({command, log, "--workers=4"});
    EXPECT_EQ(run.exit_code, 2) << command;
    EXPECT_NE(run.err.find("--workers applies to diff, summary, and serve "
                           "only"),
              std::string::npos)
        << run.err;
  }
}

}  // namespace
}  // namespace flowdiff
