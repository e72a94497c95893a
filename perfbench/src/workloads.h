// One iteration of a benchmark workload: generate the inputs from the seed,
// set the composition up, drive the open-loop arrivals on the virtual
// clock, check the outputs and (traced runs only) probe each layer.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  /// Time kSetupRepeats set-ups and stop: no inputs, no workload.
  bool setup_only = false;
  /// Directory the run may write into (persistence dirs, the span file).
  std::string scratch;
};

struct RunOutput {
  std::size_t attempted = 0;
  std::size_t completed = 0;  // requests acknowledged (timed-phase output)
  std::size_t failed = 0;     // not acknowledged OK, or output mismatch
  std::size_t stray = 0;      // output rows that belong to no request
  std::vector<std::string> notes;
  /// Harness invariant violations (an arrival that fired off its due
  /// virtual time, a set-up step that failed). Any makes the run invalid.
  std::vector<std::string> harness_errors;

  double timed_wall_s = 0;  // first arrival drain .. quiescence
  double cpu_s = 0;         // getrusage user+sys over the same interval
  double peak_rss_mb = 0;   // VmHWM at the end of the timed phase
  std::vector<double> setup_s;  // one per set-up: the rig's, or each repeat
  /// Modeled (virtual-clock) latency per completion sample, in ms.
  std::vector<double> latency_ms;

  /// Per-layer metrics (traced runs only).
  std::map<std::string, double> layers;
  std::map<std::string, SpanTotals> span_totals;
  std::string span_file;
};

/// Runs one iteration. Unknown workloads return a harness error.
RunOutput run_workload(const RunConfig& config);

}  // namespace perfbench
