#include "workload/io.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "ccl/parser.h"
#include "common/parse.h"

namespace motto {

namespace {

std::string Strip(const std::string& s) {
  size_t begin = 0, end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFoundError("cannot open " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) return InternalError("cannot write " + path);
  out << content;
  return out ? Status::Ok() : InternalError("short write to " + path);
}

/// True if the line's leading identifier is followed by ':' outside any
/// bracket — a query name prefix (the window clause also contains ':', but
/// only inside "[...]").
bool SplitNamePrefix(const std::string& line, std::string* name,
                     std::string* rest) {
  size_t i = 0;
  while (i < line.size() &&
         (std::isalnum(static_cast<unsigned char>(line[i])) ||
          line[i] == '_')) {
    ++i;
  }
  if (i == 0 || i >= line.size()) return false;
  size_t j = i;
  while (j < line.size() &&
         std::isspace(static_cast<unsigned char>(line[j]))) {
    ++j;
  }
  if (j >= line.size() || line[j] != ':') return false;
  *name = line.substr(0, i);
  *rest = Strip(line.substr(j + 1));
  return true;
}

}  // namespace

Result<std::vector<Query>> ParseWorkloadText(const std::string& text,
                                             EventTypeRegistry* registry) {
  std::vector<Query> queries;
  std::unordered_map<std::string, int> name_line;  // Name -> first line.
  std::istringstream lines(text);
  std::string line;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = Strip(line);
    if (line.empty()) continue;
    std::string name = "q" + std::to_string(queries.size() + 1);
    std::string body = line;
    std::string explicit_name, rest;
    if (SplitNamePrefix(line, &explicit_name, &rest) &&
        explicit_name != "SELECT" && explicit_name != "select") {
      name = explicit_name;
      body = rest;
    }
    auto [first, fresh] = name_line.emplace(name, line_no);
    if (!fresh) {
      return InvalidArgumentError(
          "line " + std::to_string(line_no) + ": duplicate query name '" +
          name + "' (first used on line " + std::to_string(first->second) +
          ")");
    }
    auto query = ccl::ParseQuery(body, registry, name);
    if (!query.ok()) {
      return InvalidArgumentError("line " + std::to_string(line_no) + ": " +
                                  query.status().ToString());
    }
    queries.push_back(*std::move(query));
  }
  if (queries.empty()) {
    return InvalidArgumentError("workload file contains no queries");
  }
  return queries;
}

Result<std::vector<Query>> LoadWorkloadFile(const std::string& path,
                                            EventTypeRegistry* registry) {
  MOTTO_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return ParseWorkloadText(text, registry);
}

std::string WorkloadToText(const std::vector<Query>& queries,
                           const EventTypeRegistry& registry) {
  std::string out;
  for (const Query& query : queries) {
    out += query.name + ": SELECT * FROM stream MATCHING [" +
           std::to_string(query.window) + " us : " +
           query.pattern.ToString(registry) + "]\n";
  }
  return out;
}

Status SaveWorkloadFile(const std::string& path,
                        const std::vector<Query>& queries,
                        const EventTypeRegistry& registry) {
  return WriteFile(path, WorkloadToText(queries, registry));
}

Result<EventStream> ParseStreamCsv(const std::string& text,
                                   EventTypeRegistry* registry) {
  EventStream stream;
  std::istringstream lines(text);
  std::string line;
  int line_no = 0;
  bool header_seen = false;
  while (std::getline(lines, line)) {
    ++line_no;
    line = Strip(line);
    if (line.empty()) continue;
    if (!header_seen) {
      header_seen = true;
      if (line.rfind("type,", 0) == 0) continue;  // Optional header.
    }
    std::istringstream fields(line);
    std::string type_name, ts_str, value_str, aux_str;
    if (!std::getline(fields, type_name, ',') ||
        !std::getline(fields, ts_str, ',')) {
      return InvalidArgumentError("stream csv line " +
                                  std::to_string(line_no) + ": bad format");
    }
    std::getline(fields, value_str, ',');
    std::getline(fields, aux_str, ',');
    // Checked parses: a malformed or out-of-range field is a data error the
    // caller must see, not a silent 0.0 / saturated value in the stream.
    auto field_error = [&](const char* field, const Status& status) {
      return InvalidArgumentError("stream csv line " +
                                  std::to_string(line_no) + ": bad " + field +
                                  ": " + status.message());
    };
    auto ts_parsed = ParseInt64(ts_str);
    if (!ts_parsed.ok()) {
      return field_error("timestamp", ts_parsed.status());
    }
    Timestamp ts = *ts_parsed;
    Payload payload;
    if (!value_str.empty()) {
      auto value = ParseDouble(value_str);
      if (!value.ok()) return field_error("value", value.status());
      payload.value = *value;
    }
    if (!aux_str.empty()) {
      auto aux = ParseInt64(aux_str);
      if (!aux.ok()) return field_error("aux", aux.status());
      payload.aux = *aux;
    }
    stream.push_back(Event::Primitive(
        registry->RegisterPrimitive(Strip(type_name)), ts, payload));
  }
  MOTTO_RETURN_IF_ERROR(ValidateStream(stream));
  return stream;
}

Result<EventStream> LoadStreamCsv(const std::string& path,
                                  EventTypeRegistry* registry) {
  MOTTO_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return ParseStreamCsv(text, registry);
}

std::string StreamToCsv(const EventStream& stream,
                        const EventTypeRegistry& registry) {
  std::string out = "type,ts_us,value,aux\n";
  char line[160];
  for (const Event& e : stream) {
    std::snprintf(line, sizeof(line), "%s,%lld,%.10g,%lld\n",
                  registry.NameOf(e.type()).c_str(),
                  static_cast<long long>(e.begin()), e.payload().value,
                  static_cast<long long>(e.payload().aux));
    out += line;
  }
  return out;
}

Status SaveStreamCsv(const std::string& path, const EventStream& stream,
                     const EventTypeRegistry& registry) {
  return WriteFile(path, StreamToCsv(stream, registry));
}

}  // namespace motto
