// Harness utilities: clocks, plan files, statistics, JSON lines, the span
// recorder and the counting global operator new.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <unordered_map>

#include "common.h"
#include "openflow/log_io.h"
#include "util/ipv4.h"

namespace perfbench {

// --- allocation counting -----------------------------------------------------

namespace {
thread_local int t_arm_depth = 0;
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t size) {
  if (t_arm_depth > 0) ++t_allocs;
  if (size == 0) size = 1;
  return std::malloc(size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  if (t_arm_depth > 0) ++t_allocs;
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  return std::aligned_alloc(a, rounded);
}
}  // namespace

std::uint64_t thread_allocs() { return t_allocs; }

int suspend_alloc_counting() {
  const int depth = t_arm_depth;
  t_arm_depth = 0;
  return depth;
}

void resume_alloc_counting(int depth) { t_arm_depth = depth; }

}  // namespace perfbench

void* operator new(std::size_t size) {
  if (void* p = perfbench::counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = perfbench::counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = perfbench::counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = perfbench::counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

// --- clocks ----------------------------------------------------------------

namespace {
double rusage_cpu_s(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}
}  // namespace

double process_cpu_s() { return rusage_cpu_s(RUSAGE_SELF); }
double thread_cpu_s() { return rusage_cpu_s(RUSAGE_THREAD); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// --- plan ------------------------------------------------------------------

std::string Plan::get(const std::string& key) const {
  const auto it = values.find(key);
  if (it == values.end()) {
    std::fprintf(stderr, "perfbench: plan has no '%s'\n", key.c_str());
    std::exit(2);
  }
  return it->second;
}

long long Plan::get_int(const std::string& key) const {
  return std::stoll(get(key));
}

std::string Plan::render() const {
  std::string out;
  for (const auto& [key, value] : values) out += key + "=" + value + "\n";
  return out;
}

std::optional<Plan> Plan::parse(const std::string& text) {
  Plan plan;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) return std::nullopt;
    plan.values[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return plan;
}

flowdiff::core::MonitorOptions plan_options(const Plan& plan) {
  flowdiff::core::MonitorOptions options;
  options.window = plan.get_int("window_us");
  options.rolling_baseline = plan.get_int("rolling") != 0;
  options.sanitize = plan.get_int("sanitize") != 0;
  if (options.sanitize) options.lateness = plan.get_int("lateness_us");
  std::istringstream ips(plan.get("services"));
  std::string ip;
  while (std::getline(ips, ip, ',')) {
    if (const auto parsed = flowdiff::Ipv4::parse(ip)) {
      options.services.insert(*parsed);
    }
  }
  return options;
}

std::vector<std::string> plan_tenants(const Plan& plan) {
  std::vector<std::string> tenants;
  const long long n = plan.get_int("tenants");
  const bool by_controller = plan.get_int("by_controller") != 0;
  for (long long t = 0; t < n; ++t) {
    tenants.push_back(by_controller ? "ctrl" + std::to_string(t)
                                    : plan.get("tenant"));
  }
  return tenants;
}

std::vector<Trigger> parse_triggers(const std::string& text) {
  std::vector<Trigger> out;
  std::istringstream in(text);
  Trigger t;
  while (in >> t.tenant >> t.window >> t.event >> t.byte_end) out.push_back(t);
  return out;
}

std::string must_read(const std::string& path) {
  auto text = flowdiff::of::read_file(path);
  if (!text) {
    std::fprintf(stderr, "perfbench: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  return std::move(*text);
}

void must_write(const std::string& path, const std::string& text) {
  if (!flowdiff::of::write_file(path, text)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    std::exit(2);
  }
}

// --- statistics --------------------------------------------------------------

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  if (rank == 0) rank = 1;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

void JsonLine::key(const std::string& k) {
  if (!body_.empty()) body_ += ", ";
  body_ += "\"" + k + "\": ";
}

void JsonLine::add(const std::string& k, double value) {
  key(k);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  body_ += buf;
}

void JsonLine::add(const std::string& k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
}

void JsonLine::add(const std::string& k, const std::string& value) {
  key(k);
  body_ += "\"" + value + "\"";
}

void JsonLine::add_raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
}

// --- spans -----------------------------------------------------------------

void Recorder::open(const char* name, std::uint64_t group, bool count_allocs,
                    bool sample) {
  const int depth = suspend_alloc_counting();
  if (!epoch_) epoch_ = Clock::now();
  stack_.push_back(Open{name, next_id_++, group, {}, 0.0, 0, 0, count_allocs,
                        sample});
  resume_alloc_counting(depth + (count_allocs ? 1 : 0));
  Open& top = stack_.back();
  top.allocs_before = thread_allocs();
  top.start = Clock::now();
}

void Recorder::close() {
  const Clock::time_point end = Clock::now();
  const std::uint64_t allocs_now = thread_allocs();
  const int depth = suspend_alloc_counting();
  const Open top = stack_.back();
  stack_.pop_back();
  const double duration = seconds_between(top.start, end);
  const std::uint64_t allocs =
      top.count_allocs ? allocs_now - top.allocs_before : 0;

  Aggregate* agg = nullptr;
  for (auto& [name, a] : aggregates_) {
    if (name == top.name) agg = &a;
  }
  if (agg == nullptr) agg = &aggregates_.emplace_back(top.name, Aggregate{}).second;
  ++agg->calls;
  agg->total_s += duration;
  agg->self_s += duration - top.child_s;
  agg->allocs += allocs - std::min(allocs, top.child_allocs);
  if (top.sample) agg->durations_ms.push_back(duration * 1e3);

  if (!stack_.empty()) {
    stack_.back().child_s += duration;
    stack_.back().child_allocs += allocs;
  }
  if (kept_.size() < kMaxKept) {
    kept_.push_back(Kept{top.id, stack_.empty() ? 0 : stack_.back().id,
                         top.group, top.name,
                         seconds_between(*epoch_, top.start),
                         seconds_between(*epoch_, end)});
  } else {
    ++dropped_;
  }
  resume_alloc_counting(depth - (top.count_allocs ? 1 : 0));
}

std::map<std::string, Recorder::Aggregate> Recorder::aggregates() const {
  std::map<std::string, Aggregate> out;
  for (const auto& [name, agg] : aggregates_) out.emplace(name, agg);
  return out;
}

void Recorder::write(const std::string& path) const {
  std::ofstream out(path);
  for (const Kept& k : kept_) {
    JsonLine line;
    line.add("id", k.id);
    line.add("parent", k.parent);
    line.add("name", std::string(k.name));
    line.add("tenant", k.group >> 32);
    line.add("window", k.group & 0xffffffffu);
    line.add("start_s", k.start_s);
    line.add("end_s", k.end_s);
    out << line.str() << "\n";
  }
  if (dropped_ > 0) out << "{\"dropped\": " << dropped_ << "}\n";
}

}  // namespace perfbench

// --- host-speed probe ----------------------------------------------------------

namespace perfbench {

double probe_ms() {
  // Fixed synthetic work that leans on the same machine resources as the
  // path: text-to-integer parsing, node allocation in ordered and hashed
  // containers, and pointer chasing through a working set larger than L2.
  double best = 1e300;
  for (int round = 0; round < 3; ++round) {
    const Clock::time_point start = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    std::string text;
    text.reserve(1 << 18);
    for (int i = 0; i < 20000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      text += std::to_string(x % 1000000007u);
      text += ' ';
    }
    std::map<std::uint64_t, std::string> ordered;
    std::unordered_map<std::uint64_t, std::uint64_t> hashed;
    const char* p = text.data();
    const char* end = p + text.size();
    while (p < end) {
      std::uint64_t v = 0;
      while (p < end && *p != ' ') v = v * 10 + static_cast<unsigned>(*p++ - '0');
      ++p;
      ordered.emplace(v, std::to_string(v));
      hashed[v * 31] += v;
    }
    std::uint64_t sum = 0;
    for (int pass = 0; pass < 4; ++pass) {
      for (const auto& [k, v] : ordered) sum += hashed.count(k * 31) + v.size();
    }
    const double ms = seconds_between(start, Clock::now()) * 1e3;
    if (sum == 42) std::fprintf(stderr, "%s", "");  // Keeps `sum` live.
    best = std::min(best, ms);
  }
  return best;
}

}  // namespace perfbench
