#include "trace.h"

#include <algorithm>
#include <fstream>
#include <map>

namespace perfbench {

Tracer* g_tracer = nullptr;

Tracer::Tracer() : origin_(Clock::now()) {}

int Tracer::Begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.start = SecondsSince(origin_);
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int span, uint64_t items) {
  spans_[static_cast<size_t>(span)].end = SecondsSince(origin_);
  spans_[static_cast<size_t>(span)].items = items;
  // Spans are scoped, so the one ending is the innermost open span.
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

std::vector<Tracer::Row> Tracer::Rows() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_time[static_cast<size_t>(span.parent)] += span.end - span.start;
    }
  }
  std::map<std::string, Row> by_name;
  std::vector<std::string> order;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto [it, inserted] = by_name.try_emplace(span.name);
    if (inserted) {
      it->second.name = span.name;
      order.push_back(span.name);
    }
    Row& row = it->second;
    ++row.count;
    row.total += span.end - span.start;
    row.self += span.end - span.start - child_time[i];
    row.items += span.items;
  }
  std::vector<Row> rows;
  for (const std::string& name : order) rows.push_back(by_name[name]);
  return rows;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.end - span.start);
  }
  return out;
}

double Tracer::RootSeconds() const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.parent < 0) total += span.end - span.start;
  }
  return total;
}

motto::Status Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return motto::InternalError("cannot open " + path);
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    int depth = 0;
    for (int p = span.parent; p >= 0;
         p = spans_[static_cast<size_t>(p)].parent) {
      ++depth;
    }
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << span.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << depth
        << ",\"ts\":" << static_cast<int64_t>(span.start * 1e6)
        << ",\"dur\":" << static_cast<int64_t>((span.end - span.start) * 1e6)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
        << ",\"items\":" << span.items << "}}";
  }
  out << "\n]}\n";
  if (!out.flush()) return motto::InternalError("write failed for " + path);
  return motto::Status::Ok();
}

}  // namespace perfbench
