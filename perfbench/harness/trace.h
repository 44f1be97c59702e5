#ifndef MOTTO_PERFBENCH_TRACE_H_
#define MOTTO_PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

/// Spans the benchmark records around its own calls into each motto layer
/// (the traced run only). Spans nest by call order on one thread; a span's
/// self time is its duration minus the time its direct children cover.
/// Kept in memory and written out when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0.0;  // Seconds since the tracer was created.
    double end = 0.0;
    uint64_t items = 0;  // Work done inside the span (events, frames, ...).
  };

  Tracer();

  int Begin(std::string name);
  void End(int span, uint64_t items);

  /// Per span name: total and self seconds, summed over all its spans.
  struct Row {
    std::string name;
    int count = 0;
    double total = 0.0;
    double self = 0.0;
    uint64_t items = 0;
  };
  std::vector<Row> Rows() const;
  /// Durations of every span called `name`, in recording order.
  std::vector<double> Durations(const std::string& name) const;
  /// Seconds covered by root spans.
  double RootSeconds() const;

  /// Chrome trace-event JSON ("X" events, one row per thread of nesting).
  motto::Status WriteJson(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// The active tracer, or null when tracing is off (every span is then a
/// pointer test).
extern Tracer* g_tracer;

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : id_(g_tracer != nullptr ? g_tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) g_tracer->End(id_, items_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_items(uint64_t items) { items_ = items; }

 private:
  int id_;
  uint64_t items_ = 0;
};

}  // namespace perfbench

#endif  // MOTTO_PERFBENCH_TRACE_H_
