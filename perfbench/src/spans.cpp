#include "spans.h"

#include <cstdio>

namespace perfbench {

int SpanRecorder::begin(const char* name, std::int64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.start_ns = now_ns();
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, SpanTotals> SpanRecorder::totals() const {
  // Spans nest strictly (a stack), so a child's interval lies inside its
  // parent's and siblings never overlap: self = total - sum(children).
  std::vector<double> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double total = static_cast<double>(s.end_ns - s.start_ns);
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_ms += total / 1e6;
    t.self_ms += (total - child_ns[i]) / 1e6;
  }
  return out;
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"request\":%lld}%s\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
