// The harness's own wall-clock spans: one around every call the benchmark
// makes into the program (submit / append / put_epoch, each clock drain,
// each end-of-run layer probe). Spans stay in memory and are written out
// when the run ends; a disabled recorder costs one branch per call.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  // wall clock, relative to the recorder's epoch
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   // index of the enclosing span, -1 = root
  std::int64_t request = -1;  // request id, -1 = not tied to one request
};

/// Per-name totals computed from a span list.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;  // total minus the time covered by child spans
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Opens a span nested in the innermost open span. Returns its index
  /// (-1 when disabled). `name` must outlive the recorder.
  int begin(const char* name, std::int64_t request = -1);
  void end(int index);

  /// Self and total time per span name.
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;

  /// Writes the spans as a JSON array of
  /// {name, start_ns, end_ns, parent, request}. Returns false on IO error.
  bool write_json(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(SpanRecorder& rec, const char* name, std::int64_t request = -1)
      : rec_(rec), index_(rec.begin(name, request)) {}
  ~Scoped() { rec_.end(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanRecorder& rec_;
  int index_;
};

}  // namespace perfbench
