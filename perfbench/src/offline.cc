// The offline path: an in-process `flowdiff diff seg0 seg<k>`.
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "flowdiff/flowdiff.h"
#include "harness.h"
#include "openflow/log_io.h"

namespace perfbench {

using namespace flowdiff;

OfflineInput load_offline_input(const std::string& dir) {
  const auto plan = Plan::parse(must_read(dir + "/plan.txt"));
  if (!plan) {
    std::fprintf(stderr, "perfbench: malformed %s/plan.txt\n", dir.c_str());
    std::exit(2);
  }
  OfflineInput input;
  const long long segments = plan->get_int("segments");
  for (long long k = 0; k < segments; ++k) {
    input.segments.push_back(dir + "/seg" + std::to_string(k) + ".log");
    input.references.push_back(
        k == 0 ? std::string()
               : must_read(dir + "/ref_" + std::to_string(k) + ".report"));
  }
  return input;
}

Diagnosis run_diagnosis(const OfflineInput& input, std::size_t k,
                        Recorder* rec, bool count_allocs) {
  Diagnosis out;
  const Clock::time_point setup_start = Clock::now();
  // Workers 0, as `flowdiff diff` runs by default.
  const core::FlowDiff flowdiff{core::FlowDiffConfig{}};
  const Clock::time_point start = Clock::now();
  out.setup_s = seconds_between(setup_start, start);
  const double cpu_start = process_cpu_s();

  std::optional<std::string> text[2];
  {
    const Span span(rec, "read", k, count_allocs);
    text[0] = of::read_file(input.segments[0]);
    text[1] = of::read_file(input.segments[k]);
  }
  std::optional<of::ControlLog> log[2];
  std::optional<core::BehaviorModel> model[2];
  for (int i = 0; i < 2; ++i) {
    if (!text[i]) return out;
    {
      const Span span(rec, "parse", k, count_allocs, true);
      log[i] = of::parse_control_log(*text[i]);
    }
    if (!log[i]) return out;
    out.events += log[i]->size();
  }
  for (int i = 0; i < 2; ++i) {
    const Span span(rec, "model", k, count_allocs, true);
    model[i] = flowdiff.model(*log[i]);
  }
  std::optional<core::DiffReport> report;
  {
    const Span span(rec, "diff", k, count_allocs, true);
    report = flowdiff.diff(*model[0], *model[1]);
  }
  {
    const Span span(rec, "render", k, count_allocs, true);
    out.report = report->render();
  }
  out.wall_s = seconds_between(start, Clock::now());
  out.cpu_s = process_cpu_s() - cpu_start;
  return out;
}

}  // namespace perfbench
