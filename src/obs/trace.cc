#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "obs/json_util.h"

namespace motto::obs {

namespace {

std::string Num(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", v);
  return buffer;
}

}  // namespace

TraceSink::TraceSink(size_t max_events)
    : epoch_(Clock::now()), max_events_(max_events) {
  events_.reserve(std::min<size_t>(max_events, 4096));
}

void TraceSink::Append(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

void TraceSink::Span(std::string_view name, std::string_view category,
                     int64_t tid, double ts_micros, double dur_micros,
                     std::string args_json) {
  TraceEvent event;
  event.name = std::string(name);
  event.category = std::string(category);
  event.phase = 'X';
  event.tid = tid;
  event.ts = ts_micros;
  event.dur = dur_micros;
  event.args_json = std::move(args_json);
  Append(std::move(event));
}

void TraceSink::Instant(std::string_view name, int64_t tid, double ts_micros,
                        std::string args_json) {
  TraceEvent event;
  event.name = std::string(name);
  event.phase = 'i';
  event.tid = tid;
  event.ts = ts_micros;
  event.args_json = std::move(args_json);
  Append(std::move(event));
}

void TraceSink::CounterValue(std::string_view name, double ts_micros,
                             double value) {
  TraceEvent event;
  event.name = std::string(name);
  event.phase = 'C';
  event.ts = ts_micros;
  event.args_json = "{\"value\":" + Num(value) + "}";
  Append(std::move(event));
}

void TraceSink::NameThread(int64_t tid, std::string_view name) {
  TraceEvent event;
  event.name = "thread_name";
  event.phase = 'M';
  event.tid = tid;
  event.args_json = "{\"name\":\"" + JsonEscape(name) + "\"}";
  Append(std::move(event));
}

size_t TraceSink::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

uint64_t TraceSink::dropped_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::string TraceSink::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events_) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"" + JsonEscape(event.name) + "\",\"ph\":\"";
    out += event.phase;
    out += "\",\"pid\":1,\"tid\":" + std::to_string(event.tid);
    out += ",\"ts\":" + Num(event.ts);
    if (event.phase == 'X') out += ",\"dur\":" + Num(event.dur);
    if (event.phase == 'i') out += ",\"s\":\"t\"";
    if (!event.category.empty()) {
      out += ",\"cat\":\"" + JsonEscape(event.category) + "\"";
    }
    if (!event.args_json.empty()) out += ",\"args\":" + event.args_json;
    out += '}';
  }
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":" +
         std::to_string(dropped_) + "}}";
  return out;
}

Status TraceSink::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return InternalError("cannot write trace to " + path);
  out << ToJson();
  return out ? Status::Ok() : InternalError("short write to " + path);
}

}  // namespace motto::obs
