#include "openflow/log_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <limits>
#include <type_traits>
#include <vector>

namespace flowdiff::of {

namespace {

void append_key(std::string& out, const FlowKey& key) {
  out += key.src_ip.to_string();
  out += ' ';
  out += std::to_string(key.src_port);
  out += ' ';
  out += key.dst_ip.to_string();
  out += ' ';
  out += std::to_string(key.dst_port);
  out += ' ';
  out += std::to_string(static_cast<int>(key.proto));
}

void append_match(std::string& out, const FlowMatch& match) {
  auto field = [&out](const auto& opt, auto render) {
    if (opt) {
      out += render(*opt);
    } else {
      out += '-';
    }
    out += ' ';
  };
  field(match.src_ip, [](Ipv4 ip) { return ip.to_string(); });
  field(match.src_port, [](std::uint16_t p) { return std::to_string(p); });
  field(match.dst_ip, [](Ipv4 ip) { return ip.to_string(); });
  field(match.dst_port, [](std::uint16_t p) { return std::to_string(p); });
  field(match.proto,
        [](Proto p) { return std::to_string(static_cast<int>(p)); });
  if (match.in_port) {
    out += std::to_string(match.in_port->value);
  } else {
    out += '-';
  }
}

constexpr bool is_field_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

/// Blank lines and '#' comments carry no record.
constexpr bool is_skipped_line(std::string_view line) {
  return line.empty() || line.front() == '#';
}

/// One cursor over one line: every field is parsed in place as the cursor
/// passes it, with no token views built first, no copies and no per-field
/// allocation. Each call skips the separators before its field and fails
/// when the field is missing, malformed, or runs into more bytes than its
/// grammar takes; any failure poisons the line (callers reject the whole
/// record), matching the capture format's all-or-nothing contract.
class FieldScanner {
 public:
  explicit FieldScanner(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  /// The next whitespace-delimited token; false when the line ran out.
  bool token(std::string_view& out) {
    skip_space();
    if (p_ == end_) return false;
    const char* first = p_;
    while (p_ != end_ && !is_field_space(*p_)) ++p_;
    out = std::string_view(first, static_cast<std::size_t>(p_ - first));
    return true;
  }

  /// A base-10 integer filling the whole token, in the grammar
  /// std::from_chars accepts: digits only, a leading '-' for signed types
  /// alone, never '+', and values outside Int's range reject (a port of
  /// 65536 is an error, not 0).
  template <typename Int>
  bool number(Int& out) {
    using U = std::make_unsigned_t<Int>;
    skip_space();
    bool negative = false;
    if constexpr (std::is_signed_v<Int>) {
      if (p_ != end_ && *p_ == '-') {
        negative = true;
        ++p_;
      }
    }
    const U limit = negative
                        ? U(U(std::numeric_limits<Int>::max()) + 1)
                        : U(std::numeric_limits<Int>::max());
    const U cap = limit / 10;
    const unsigned last_digit = static_cast<unsigned>(limit % 10);
    const char* digits = p_;
    U value = 0;
    for (; p_ != end_; ++p_) {
      const unsigned d = static_cast<unsigned char>(*p_) - unsigned{'0'};
      if (d > 9) break;
      if (value > cap || (value == cap && d > last_digit)) return false;
      value = static_cast<U>(value * 10 + d);
    }
    if (p_ == digits || !at_token_end()) return false;
    out = negative ? static_cast<Int>(U(0) - value) : static_cast<Int>(value);
    return true;
  }

  /// A dotted quad filling the whole token (Ipv4's own grammar).
  bool ip(Ipv4& out) {
    skip_space();
    const char* stop = Ipv4::parse_prefix(p_, end_, out);
    if (stop == nullptr) return false;
    p_ = stop;
    return at_token_end();
  }

  bool key(FlowKey& k) {
    int proto = 0;
    if (!ip(k.src_ip) || !number(k.src_port) || !ip(k.dst_ip) ||
        !number(k.dst_port) || !number(proto)) {
      return false;
    }
    k.proto = static_cast<Proto>(proto);
    return true;
  }

  /// Six match fields, each '-' (absent) or a value that must parse: a
  /// present-but-garbled field rejects the whole line rather than being
  /// silently widened to a wildcard.
  bool match(FlowMatch& m) {
    m = FlowMatch{};
    if (!wildcard() && !ip(m.src_ip.emplace())) return false;
    if (!wildcard() && !number(m.src_port.emplace())) return false;
    if (!wildcard() && !ip(m.dst_ip.emplace())) return false;
    if (!wildcard() && !number(m.dst_port.emplace())) return false;
    if (!wildcard()) {
      int proto = 0;
      if (!number(proto)) return false;
      m.proto = static_cast<Proto>(proto);
    }
    return wildcard() || number(m.in_port.emplace().value);
  }

 private:
  void skip_space() {
    while (p_ != end_ && is_field_space(*p_)) ++p_;
  }

  [[nodiscard]] bool at_token_end() const {
    return p_ == end_ || is_field_space(*p_);
  }

  /// Consumes a lone '-' (a wildcard match field) if one comes next.
  bool wildcard() {
    skip_space();
    if (p_ == end_ || *p_ != '-') return false;
    if (p_ + 1 != end_ && !is_field_space(p_[1])) return false;
    ++p_;
    return true;
  }

  const char* p_;
  const char* end_;
};

/// Splits text into '\n'-terminated line views without copying; blank and
/// '#'-comment lines are skipped here so every line handed back is a
/// candidate record.
class LineScanner {
 public:
  explicit LineScanner(std::string_view text) : rest_(text) {}

  std::optional<std::string_view> next() {
    while (!rest_.empty()) {
      const std::size_t eol = rest_.find('\n');
      std::string_view line = rest_.substr(0, eol);
      rest_.remove_prefix(eol == std::string_view::npos ? rest_.size()
                                                        : eol + 1);
      if (is_skipped_line(line)) continue;
      return line;
    }
    return std::nullopt;
  }

 private:
  std::string_view rest_;
};

/// Parses the payload of one event line (everything after the leading
/// kind/ts/ctrl triple, which the caller already consumed) straight into
/// the event's message.
bool parse_event_body(std::string_view kind, FieldScanner& r,
                      ControlEvent& event) {
  if (kind == "PIN") {
    auto& pin = event.msg.emplace<PacketIn>();
    return r.number(pin.sw.value) && r.number(pin.in_port.value) &&
           r.key(pin.key) && r.number(pin.flow_uid);
  }
  if (kind == "FMOD") {
    auto& fm = event.msg.emplace<FlowMod>();
    return r.number(fm.sw.value) && r.number(fm.out_port.value) &&
           r.number(fm.idle_timeout) && r.number(fm.hard_timeout) &&
           r.match(fm.match) && r.key(fm.key) && r.number(fm.flow_uid);
  }
  if (kind == "POUT") {
    auto& po = event.msg.emplace<PacketOut>();
    return r.number(po.sw.value) && r.number(po.out_port.value) &&
           r.key(po.key) && r.number(po.flow_uid);
  }
  if (kind == "FREM") {
    auto& fr = event.msg.emplace<FlowRemoved>();
    int reason = 0;
    if (!r.number(fr.sw.value) || !r.number(reason)) return false;
    fr.reason = static_cast<RemovedReason>(reason);
    return r.number(fr.duration) && r.number(fr.byte_count) &&
           r.number(fr.packet_count) && r.match(fr.match) && r.key(fr.key);
  }
  if (kind == "STAT") {
    auto& st = event.msg.emplace<FlowStatsReply>();
    return r.number(st.sw.value) && r.number(st.age) &&
           r.number(st.byte_count) && r.number(st.packet_count) &&
           r.match(st.match) && r.key(st.key);
  }
  if (kind == "ECHO") {
    return r.number(event.msg.emplace<EchoReply>().sw.value);
  }
  return false;  // Unknown record type.
}

void append_event(std::string& out, const ControlEvent& event) {
  const std::string prefix = std::to_string(event.ts) + ' ' +
                             std::to_string(event.controller.value) + ' ';
  if (const auto* pin = std::get_if<PacketIn>(&event.msg)) {
    out += "PIN " + prefix + std::to_string(pin->sw.value) + ' ' +
           std::to_string(pin->in_port.value) + ' ';
    append_key(out, pin->key);
    out += ' ' + std::to_string(pin->flow_uid) + '\n';
  } else if (const auto* fm = std::get_if<FlowMod>(&event.msg)) {
    out += "FMOD " + prefix + std::to_string(fm->sw.value) + ' ' +
           std::to_string(fm->out_port.value) + ' ' +
           std::to_string(fm->idle_timeout) + ' ' +
           std::to_string(fm->hard_timeout) + ' ';
    append_match(out, fm->match);
    out += ' ';
    append_key(out, fm->key);
    out += ' ' + std::to_string(fm->flow_uid) + '\n';
  } else if (const auto* po = std::get_if<PacketOut>(&event.msg)) {
    out += "POUT " + prefix + std::to_string(po->sw.value) + ' ' +
           std::to_string(po->out_port.value) + ' ';
    append_key(out, po->key);
    out += ' ' + std::to_string(po->flow_uid) + '\n';
  } else if (const auto* fr = std::get_if<FlowRemoved>(&event.msg)) {
    out += "FREM " + prefix + std::to_string(fr->sw.value) + ' ' +
           std::to_string(static_cast<int>(fr->reason)) + ' ' +
           std::to_string(fr->duration) + ' ' +
           std::to_string(fr->byte_count) + ' ' +
           std::to_string(fr->packet_count) + ' ';
    append_match(out, fr->match);
    out += ' ';
    append_key(out, fr->key);
    out += '\n';
  } else if (const auto* echo = std::get_if<EchoReply>(&event.msg)) {
    out += "ECHO " + prefix + std::to_string(echo->sw.value) + '\n';
  } else if (const auto* st = std::get_if<FlowStatsReply>(&event.msg)) {
    out += "STAT " + prefix + std::to_string(st->sw.value) + ' ' +
           std::to_string(st->age) + ' ' +
           std::to_string(st->byte_count) + ' ' +
           std::to_string(st->packet_count) + ' ';
    append_match(out, st->match);
    out += ' ';
    append_key(out, st->key);
    out += '\n';
  }
}

}  // namespace

std::string serialize_event(const ControlEvent& event) {
  std::string out;
  append_event(out, event);
  if (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

std::string serialize(const std::vector<ControlEvent>& events) {
  std::string out;
  out += "# flowdiff control log v1\n";
  for (const auto& event : events) append_event(out, event);
  return out;
}

std::string serialize(const ControlLog& log) { return serialize(log.events()); }

LineParse parse_control_line(std::string_view line, ControlEvent& out) {
  if (is_skipped_line(line)) return LineParse::kSkip;
  FieldScanner r(line);
  std::string_view kind;
  if (!r.token(kind) || !r.number(out.ts) || !r.number(out.controller.value) ||
      !parse_event_body(kind, r, out)) {
    return LineParse::kMalformed;
  }
  return LineParse::kEvent;
}

std::optional<std::vector<ControlEvent>> parse_control_events(
    std::string_view text) {
  std::vector<ControlEvent> events;
  // Upper bound on record count (headers/blanks over-reserve slightly);
  // one allocation up front instead of log2(n) growth reallocations.
  events.reserve(static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n') + 1));
  LineScanner lines(text);
  while (const auto line = lines.next()) {
    if (parse_control_line(*line, events.emplace_back()) !=
        LineParse::kEvent) {
      return std::nullopt;
    }
  }
  return events;
}

std::optional<ControlLog> parse_control_log(std::string_view text) {
  auto events = parse_control_events(text);
  if (!events) return std::nullopt;
  return ControlLog(std::move(*events));
}

std::string serialize(const FlowSequence& flows) {
  std::string out;
  out += "# flowdiff flow sequence v1\n";
  for (const auto& tf : flows) {
    out += "FLOW " + std::to_string(tf.ts) + ' ';
    append_key(out, tf.key);
    out += '\n';
  }
  return out;
}

std::optional<FlowSequence> parse_flow_sequence(std::string_view text) {
  FlowSequence flows;
  flows.reserve(static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n') + 1));
  LineScanner lines(text);
  while (const auto line = lines.next()) {
    FieldScanner r(*line);
    std::string_view kind;
    TimedFlow& flow = flows.emplace_back();
    if (!r.token(kind) || kind != "FLOW" || !r.number(flow.ts) ||
        !r.key(flow.key)) {
      return std::nullopt;
    }
  }
  return flows;
}

bool write_file(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out.write(content.data(),
            static_cast<std::streamsize>(content.size()));
  return static_cast<bool>(out);
}

std::optional<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } const closer{fd};
  struct stat st {};
  if (::fstat(fd, &st) != 0 || S_ISDIR(st.st_mode)) return std::nullopt;
  // A regular file's size sizes the string once; anything else (a pipe, a
  // device, a file that grew since the fstat) spills through `spill`.
  std::string text(
      S_ISREG(st.st_mode) ? static_cast<std::size_t>(st.st_size) : 0, '\0');
  std::size_t used = 0;
  char spill[4096];
  for (;;) {
    const bool in_place = used < text.size();
    char* const dst = in_place ? text.data() + used : spill;
    const std::size_t room = in_place ? text.size() - used : sizeof spill;
    const ssize_t n = ::read(fd, dst, room);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return std::nullopt;
    if (n == 0) break;
    if (!in_place) text.append(spill, static_cast<std::size_t>(n));
    used += static_cast<std::size_t>(n);
  }
  text.resize(used);  // Shorter only if the file shrank since the fstat.
  return text;
}

}  // namespace flowdiff::of
