#include "check.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string_view>

namespace perfbench {

namespace {

uint64_t Hash(std::string_view sink, std::string_view fingerprint) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a, then a splitmix finalizer.
  auto mix = [&h](std::string_view bytes) {
    for (unsigned char c : bytes) {
      h ^= c;
      h *= 1099511628211ull;
    }
  };
  mix(sink);
  mix(std::string_view("\x1f", 1));
  mix(fingerprint);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

void Add(MatchPrint* print, const std::string& sink,
         std::string_view fingerprint) {
  SinkPrint& entry = (*print)[sink];
  ++entry.count;
  entry.sum += Hash(sink, fingerprint);
}

}  // namespace

MatchPrint PrintRun(const motto::RunResult& run) {
  MatchPrint print;
  for (const auto& [sink, events] : run.sink_events) {
    for (const motto::Event& event : events) {
      Add(&print, sink, event.Fingerprint());
    }
  }
  return print;
}

motto::Result<MatchPrint> PrintMatchFiles(const std::string& out_dir) {
  MatchPrint print;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(out_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("conn", 0) != 0 || entry.path().extension() != ".matches") {
      continue;
    }
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) {
      // sink \t begin \t end \t fingerprint
      size_t a = line.find('\t');
      size_t b = a == std::string::npos ? a : line.find('\t', a + 1);
      size_t c = b == std::string::npos ? b : line.find('\t', b + 1);
      if (c == std::string::npos) {
        return motto::InvalidArgumentError("malformed match line in " +
                                           entry.path().string() + ": " +
                                           line);
      }
      Add(&print, line.substr(0, a), std::string_view(line).substr(c + 1));
    }
  }
  if (ec) {
    return motto::InternalError("list " + out_dir + ": " + ec.message());
  }
  return print;
}

std::string FirstMismatch(const MatchPrint& got, const MatchPrint& want) {
  std::set<std::string> sinks;
  for (const auto& [sink, print] : got) sinks.insert(sink);
  for (const auto& [sink, print] : want) sinks.insert(sink);
  for (const std::string& sink : sinks) {
    auto g = got.find(sink);
    auto w = want.find(sink);
    SinkPrint a = g == got.end() ? SinkPrint{} : g->second;
    SinkPrint b = w == want.end() ? SinkPrint{} : w->second;
    if (!(a == b)) return sink;
  }
  return std::string();
}

}  // namespace perfbench
