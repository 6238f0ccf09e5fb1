// EventSource: the serve daemon's live ingest edge. FileTailSource must
// survive rotation and truncation without losing pre-rotation events;
// SocketSource must handle partial lines, disconnects, and reconnects; and
// events lost while a producer was down must surface as sanitizer orphan
// accounting downstream, not silent gaps.
#include "ingest/event_source.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "flowdiff/monitor.h"
#include "flowdiff/monitor_options.h"
#include "openflow/log_io.h"
#include "http_test_util.h"

namespace flowdiff::ingest {
namespace {

namespace fs = std::filesystem;

/// A synthetic PIN line: one event at `ts_us` from controller `ctrl`.
std::string pin_line(long long ts_us, int ctrl, int uid) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "PIN %lld %d 1 1 10.0.0.1 %d 10.0.0.2 80 6 %d\n", ts_us,
                ctrl, 1000 + uid, uid);
  return buf;
}

/// Matching FMOD so the PIN is not an orphan: wildcard match, key echoing
/// the PIN's 5-tuple.
std::string fmod_line(long long ts_us, int ctrl, int uid) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "FMOD %lld %d 1 2 10 30 - - - - - - 10.0.0.1 %d 10.0.0.2 "
                "80 6 %d\n",
                ts_us, ctrl, 1000 + uid, uid);
  return buf;
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void append(const fs::path& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
  std::fclose(f);
}

std::size_t poll_all(EventSource& source,
                     std::vector<of::ControlEvent>& out) {
  return source.poll(out);
}

// --- FileTailSource --------------------------------------------------------

TEST(FileTailSource, ReadsExistingContentAndFollowsAppends) {
  const fs::path dir = fresh_dir("evsrc_follow");
  const fs::path log = dir / "a.log";
  append(log, "# a comment\n" + pin_line(1000, 0, 1) + pin_line(2000, 0, 2));

  FileTailSource source("t", FileTailConfig{log.string(), true});
  std::vector<of::ControlEvent> events;
  EXPECT_EQ(poll_all(source, events), 2u);
  EXPECT_TRUE(source.idle());

  append(log, pin_line(3000, 0, 3));
  EXPECT_EQ(poll_all(source, events), 1u);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[2].ts, SimTime{3000});
  EXPECT_EQ(source.stats().events, 3u);
  fs::remove_all(dir);
}

TEST(FileTailSource, PartialLineWaitsForItsNewline) {
  const fs::path dir = fresh_dir("evsrc_partial");
  const fs::path log = dir / "a.log";
  const std::string line = pin_line(1000, 0, 1);
  append(log, line.substr(0, 10));

  FileTailSource source("t", FileTailConfig{log.string(), true});
  std::vector<of::ControlEvent> events;
  EXPECT_EQ(poll_all(source, events), 0u);  // Half a line is not an event.
  append(log, line.substr(10));
  EXPECT_EQ(poll_all(source, events), 1u);
  EXPECT_EQ(source.stats().lines_rejected, 0u);
  fs::remove_all(dir);
}

TEST(FileTailSource, MissingFileIsWaitedForNotFatal) {
  const fs::path dir = fresh_dir("evsrc_missing");
  const fs::path log = dir / "later.log";

  FileTailSource source("t", FileTailConfig{log.string(), true});
  std::vector<of::ControlEvent> events;
  EXPECT_EQ(poll_all(source, events), 0u);
  EXPECT_TRUE(source.idle());

  append(log, pin_line(1000, 0, 1));
  EXPECT_EQ(poll_all(source, events), 1u);
  fs::remove_all(dir);
}

TEST(FileTailSource, RotationDrainsOldFileBeforeSwitching) {
  const fs::path dir = fresh_dir("evsrc_rotate");
  const fs::path log = dir / "a.log";
  append(log, pin_line(1000, 0, 1));

  FileTailSource source("t", FileTailConfig{log.string(), true});
  std::vector<of::ControlEvent> events;
  EXPECT_EQ(poll_all(source, events), 1u);

  // logrotate-style: rename, then keep writing to the *old* inode briefly
  // before the new file appears. Nothing written pre-switch may be lost.
  const fs::path rotated = dir / "a.log.1";
  fs::rename(log, rotated);
  append(rotated, pin_line(2000, 0, 2));
  append(log, pin_line(3000, 0, 3) + pin_line(4000, 0, 4));

  EXPECT_EQ(poll_all(source, events), 3u);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[1].ts, SimTime{2000});  // Old-inode tail drained first.
  EXPECT_EQ(events[2].ts, SimTime{3000});
  EXPECT_EQ(source.stats().rotations, 1u);
  EXPECT_EQ(source.stats().truncations, 0u);
  fs::remove_all(dir);
}

TEST(FileTailSource, TruncationResetsToTheNewShorterFile) {
  const fs::path dir = fresh_dir("evsrc_trunc");
  const fs::path log = dir / "a.log";
  append(log, pin_line(1000, 0, 1) + pin_line(2000, 0, 2));

  FileTailSource source("t", FileTailConfig{log.string(), true});
  std::vector<of::ControlEvent> events;
  EXPECT_EQ(poll_all(source, events), 2u);

  // copytruncate: same inode, size snaps back to zero, new content begins.
  ASSERT_TRUE(fs::exists(log));
  fs::resize_file(log, 0);
  append(log, pin_line(5000, 0, 5));

  EXPECT_EQ(poll_all(source, events), 1u);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[2].ts, SimTime{5000});
  EXPECT_EQ(source.stats().truncations, 1u);
  fs::remove_all(dir);
}

TEST(FileTailSource, MalformedLinesAreCountedAndSkipped) {
  const fs::path dir = fresh_dir("evsrc_reject");
  const fs::path log = dir / "a.log";
  append(log, pin_line(1000, 0, 1) + "THIS IS NOT AN EVENT\n" +
                  pin_line(2000, 0, 2) + "PIN not numbers\n");

  FileTailSource source("t", FileTailConfig{log.string(), true});
  std::vector<of::ControlEvent> events;
  EXPECT_EQ(poll_all(source, events), 2u);
  EXPECT_EQ(source.stats().lines_rejected, 2u);
  EXPECT_EQ(source.stats().events, 2u);
  fs::remove_all(dir);
}

TEST(FileTailSource, FromEndSkipsExistingContent) {
  const fs::path dir = fresh_dir("evsrc_end");
  const fs::path log = dir / "a.log";
  append(log, pin_line(1000, 0, 1));

  FileTailSource source("t", FileTailConfig{log.string(), false});
  std::vector<of::ControlEvent> events;
  EXPECT_EQ(poll_all(source, events), 0u);
  append(log, pin_line(2000, 0, 2));
  EXPECT_EQ(poll_all(source, events), 1u);
  EXPECT_EQ(events[0].ts, SimTime{2000});
  fs::remove_all(dir);
}

TEST(FileTailSource, LargeFileComesBackOverSeveralBoundedPolls) {
  // A 4 MiB capture already on disk must not be parsed into one batch by
  // a single poll(): each poll reads a bounded budget (16 reads of
  // 64 KiB) and reports idle() false while bytes remain, so the file
  // comes back over several polls — in order, complete, and with the same
  // totals an unbounded drain would report.
  const fs::path dir = fresh_dir("evsrc_large");
  const fs::path log = dir / "a.log";
  std::string text;
  std::size_t lines = 0;
  while (text.size() < (std::size_t{4} << 20)) {
    text += pin_line(1000 + static_cast<long long>(lines), 0,
                     static_cast<int>(lines % 50000));
    ++lines;
  }
  append(log, text);

  FileTailSource source("t", FileTailConfig{log.string(), true});
  constexpr std::uint64_t kPollBudget = 16 * 64 * 1024;
  std::vector<of::ControlEvent> events;
  std::size_t busy_polls = 0;
  std::uint64_t max_poll_bytes = 0;
  for (int polls = 0; polls < 100; ++polls) {
    const std::uint64_t before = source.stats().bytes;
    poll_all(source, events);
    max_poll_bytes = std::max(max_poll_bytes, source.stats().bytes - before);
    if (source.idle()) break;
    ++busy_polls;
  }

  EXPECT_TRUE(source.idle());
  ASSERT_EQ(events.size(), lines);
  EXPECT_EQ(source.stats().events, lines);
  EXPECT_EQ(source.stats().bytes, text.size());
  EXPECT_EQ(source.stats().lines_rejected, 0u);
  EXPECT_LE(max_poll_bytes, kPollBudget);
  EXPECT_GE(busy_polls, 4u) << "4 MiB at <= 1 MiB per poll";
  std::size_t out_of_order = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].ts != SimTime{1000 + static_cast<SimTime>(i)}) {
      ++out_of_order;
    }
  }
  EXPECT_EQ(out_of_order, 0u);
  fs::remove_all(dir);
}

// --- SocketSource ----------------------------------------------------------

void send_all(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::send(fd, text.data() + off, text.size() - off, 0);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

/// Polls until `out` holds `want` events (the accept loop and the client
/// bytes race the test thread; poll() never blocks).
void poll_until(SocketSource& source, std::vector<of::ControlEvent>& out,
                std::size_t want) {
  for (int i = 0; i < 500 && out.size() < want; ++i) {
    source.poll(out);
    if (out.size() < want) ::usleep(2000);
  }
}

TEST(SocketSource, AcceptsAndParsesSplitLines) {
  SocketSource source("t", SocketSourceConfig{});
  ASSERT_TRUE(source.start()) << source.last_error();
  ASSERT_NE(source.port(), 0);

  const int fd = flowdiff::testing::http_connect(source.port());
  ASSERT_GE(fd, 0);
  const std::string text = pin_line(1000, 0, 1) + pin_line(2000, 0, 2);
  send_all(fd, text.substr(0, 20));  // Mid-line split.
  std::vector<of::ControlEvent> events;
  poll_until(source, events, 0);
  send_all(fd, text.substr(20));
  poll_until(source, events, 2);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ts, SimTime{1000});
  EXPECT_EQ(source.stats().accepts, 1u);
  ::close(fd);
}

TEST(SocketSource, DisconnectFlushesFinalUnterminatedLine) {
  SocketSource source("t", SocketSourceConfig{});
  ASSERT_TRUE(source.start()) << source.last_error();

  const int fd = flowdiff::testing::http_connect(source.port());
  ASSERT_GE(fd, 0);
  std::string line = pin_line(1000, 0, 1);
  line.pop_back();  // Producer died before the trailing newline.
  send_all(fd, line);
  ::close(fd);

  std::vector<of::ControlEvent> events;
  poll_until(source, events, 1);
  ASSERT_EQ(events.size(), 1u);
  for (int i = 0; i < 500 && source.stats().disconnects == 0; ++i) {
    source.poll(events);
    ::usleep(2000);
  }
  EXPECT_EQ(source.stats().disconnects, 1u);
  EXPECT_TRUE(source.idle());
}

TEST(SocketSource, ReconnectContinuesTheSameTenantStream) {
  SocketSource source("t", SocketSourceConfig{});
  ASSERT_TRUE(source.start()) << source.last_error();
  std::vector<of::ControlEvent> events;

  int fd = flowdiff::testing::http_connect(source.port());
  ASSERT_GE(fd, 0);
  send_all(fd, pin_line(1000, 0, 1));
  poll_until(source, events, 1);
  ::close(fd);

  fd = flowdiff::testing::http_connect(source.port());
  ASSERT_GE(fd, 0);
  send_all(fd, pin_line(2000, 0, 2));
  poll_until(source, events, 2);
  ::close(fd);

  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(source.stats().accepts, 2u);
}

TEST(SocketSource, UnixDomainSocketRoundTrips) {
  const fs::path dir = fresh_dir("evsrc_unix");
  SocketSourceConfig config;
  config.unix_path = (dir / "s.sock").string();
  SocketSource source("t", config);
  ASSERT_TRUE(source.start()) << source.last_error();

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                config.unix_path.c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  send_all(fd, pin_line(1000, 0, 1));
  std::vector<of::ControlEvent> events;
  poll_until(source, events, 1);
  ::close(fd);
  ASSERT_EQ(events.size(), 1u);
  fs::remove_all(dir);
}

TEST(SocketSource, LargeBacklogComesBackOverSeveralBoundedPolls) {
  // A producer that offers 4 MiB at once must not pin one poll() until the
  // socket runs dry: each poll reads a bounded budget per client (16 reads
  // of 64 KiB), so the backlog comes back over several polls — in order,
  // complete, and with the same totals an unbounded drain would report.
  std::string text;
  std::size_t lines = 0;
  while (text.size() < (std::size_t{4} << 20)) {
    text += pin_line(1000 + static_cast<long long>(lines), 0,
                     static_cast<int>(lines % 50000));
    ++lines;
  }
  std::optional<SocketSource> source(std::in_place, "t",
                                     SocketSourceConfig{});
  ASSERT_TRUE(source->start()) << source->last_error();
  const int fd = flowdiff::testing::http_connect(source->port());
  ASSERT_GE(fd, 0);
  // Before the first poll, fill the connection until the kernel takes no
  // more (as much of the 4 MiB as its socket buffers hold); a writer
  // thread sends the rest while the source polls.
  ASSERT_EQ(::fcntl(fd, F_SETFL, O_NONBLOCK), 0);
  std::size_t prefilled = 0;
  while (prefilled < text.size()) {
    const ssize_t n = ::send(fd, text.data() + prefilled,
                             text.size() - prefilled, MSG_NOSIGNAL);
    if (n <= 0) break;  // EAGAIN: the socket buffers are full.
    prefilled += static_cast<std::size_t>(n);
  }
  ASSERT_EQ(::fcntl(fd, F_SETFL, 0), 0);
  std::thread writer([fd, prefilled, &text] {
    for (std::size_t off = prefilled; off < text.size();) {
      const ssize_t n = ::send(fd, text.data() + off, text.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) break;  // The source went away (test failure path).
      off += static_cast<std::size_t>(n);
    }
    ::close(fd);
  });

  constexpr std::uint64_t kPollBudget = 16 * 64 * 1024;
  std::vector<of::ControlEvent> events;
  std::size_t productive_polls = 0;
  std::uint64_t max_poll_bytes = 0;
  for (int idle = 0; idle < 2000 && events.size() < lines;) {
    const std::uint64_t before = source->stats().bytes;
    if (source->poll(events) > 0) {
      ++productive_polls;
    } else {
      ++idle;
      ::usleep(1000);
    }
    max_poll_bytes = std::max(max_poll_bytes, source->stats().bytes - before);
  }
  const SourceStats stats = source->stats();
  source.reset();  // Unblocks the writer if the test bailed out early.
  writer.join();

  ASSERT_EQ(events.size(), lines);
  EXPECT_EQ(stats.events, lines);
  EXPECT_EQ(stats.bytes, text.size());
  EXPECT_EQ(stats.lines_rejected, 0u);
  EXPECT_LE(max_poll_bytes, kPollBudget) << prefilled << " bytes prefilled";
  EXPECT_GE(productive_polls, 4u) << "4 MiB at <= 1 MiB per poll";
  std::size_t out_of_order = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].ts != SimTime{1000 + static_cast<SimTime>(i)}) {
      ++out_of_order;
    }
  }
  EXPECT_EQ(out_of_order, 0u);
}

// --- the gap contract ------------------------------------------------------

TEST(SocketSource, DisconnectGapSurfacesAsSanitizerOrphans) {
  // Events emitted while the producer was disconnected never reach the
  // daemon. The serve pipeline's answer is not to guess — it is the ingest
  // sanitizer's orphan reconciliation: PacketIns whose FlowMods fell into
  // the gap (and vice versa) show up in the window's StreamQuality.
  SocketSource source("t", SocketSourceConfig{});
  ASSERT_TRUE(source.start()) << source.last_error();
  std::vector<of::ControlEvent> events;

  // Connection 1: complete request/response pairs, then a PIN whose FMOD
  // will be lost with the connection.
  int fd = flowdiff::testing::http_connect(source.port());
  ASSERT_GE(fd, 0);
  std::string first;
  for (int i = 1; i <= 4; ++i) {
    first += pin_line(i * 100000, 0, i) + fmod_line(i * 100000 + 500, 0, i);
  }
  first += pin_line(500000, 0, 5);
  send_all(fd, first);
  poll_until(source, events, 9);
  ::close(fd);

  // The gap: uid 5's FMOD and uid 6's PIN are never sent.

  // Connection 2: resumes with uid 6's FMOD (orphaned — its PIN is gone)
  // and a final clean pair.
  fd = flowdiff::testing::http_connect(source.port());
  ASSERT_GE(fd, 0);
  std::string second = fmod_line(600500, 0, 6);
  second += pin_line(700000, 0, 7) + fmod_line(700500, 0, 7);
  send_all(fd, second);
  poll_until(source, events, 12);
  ::close(fd);
  ASSERT_EQ(events.size(), 12u);

  core::MonitorOptions options;
  options.window = 1 * kSecond;
  options.sanitize = true;
  ASSERT_FALSE(options.validate().has_value());
  core::SlidingMonitor monitor(options);
  monitor.feed(events);
  monitor.flush();

  std::uint64_t orphans = 0;
  for (const auto& audit : monitor.audits()) {
    orphans += audit.quality.orphan_packet_ins +
               audit.quality.orphan_flow_mods;
  }
  EXPECT_GE(orphans, 2u) << "the disconnect gap left no trace in stream "
                            "quality";
}

}  // namespace
}  // namespace flowdiff::ingest
