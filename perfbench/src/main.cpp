// perfbench_workload: runs ONE iteration of a benchmark workload and prints
// its raw measurements as one JSON line on stdout. perfbench/run.py runs it
// repeatedly for the measured interval and aggregates the results.
//
//   perfbench_workload --workload ride_dispatch --seed 1 --trace 0
//                      --scratch DIR [--setup-only 1]
//
// --setup-only 1 times repeated set-ups of the workload's composition and
// runs nothing else.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/json.h"
#include "common/logging.h"
#include "common/value.h"
#include "workloads.h"

namespace {

using knactor::common::Value;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_workload --workload NAME --seed N "
               "--trace 0|1 --scratch DIR [--setup-only 0|1]\n");
  return 2;
}

template <typename T>
Value list(const std::vector<T>& v) {
  return Value(Value::Array(v.begin(), v.end()));
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false, have_scratch = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--setup-only") {
      config.setup_only = value == "1";
    } else if (flag == "--scratch") {
      config.scratch = value;
      have_scratch = true;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_scratch) return usage();
  knactor::common::Log::set_level(knactor::common::LogLevel::kError);

  const perfbench::RunOutput out = perfbench::run_workload(config);

  Value r = Value::object();
  r.set("workload", Value(config.workload));
  r.set("seed", Value(static_cast<std::int64_t>(config.seed)));
  r.set("attempted", Value(static_cast<std::int64_t>(out.attempted)));
  r.set("completed", Value(static_cast<std::int64_t>(out.completed)));
  r.set("failed", Value(static_cast<std::int64_t>(out.failed)));
  r.set("stray", Value(static_cast<std::int64_t>(out.stray)));
  r.set("timed_wall_s", Value(out.timed_wall_s));
  r.set("cpu_s", Value(out.cpu_s));
  r.set("peak_rss_mb", Value(out.peak_rss_mb));
  Value layers = Value::object();
  for (const auto& [name, v] : out.layers) layers.set(name, Value(v));
  r.set("layers", std::move(layers));
  Value spans = Value::object();
  for (const auto& [name, t] : out.span_totals) {
    Value s = Value::object();
    s.set("count", Value(static_cast<std::int64_t>(t.count)));
    s.set("total_ms", Value(t.total_ms));
    s.set("self_ms", Value(t.self_ms));
    spans.set(name, std::move(s));
  }
  r.set("spans", std::move(spans));
  r.set("span_file", Value(out.span_file));
  r.set("notes", list(out.notes));
  r.set("harness_errors", list(out.harness_errors));
  r.set("setup_s", list(out.setup_s));
  r.set("latency_ms", list(out.latency_ms));
  std::printf("%s\n", knactor::common::to_json(r).c_str());
  return 0;
}
