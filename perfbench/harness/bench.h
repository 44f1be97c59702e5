#ifndef MOTTO_PERFBENCH_BENCH_H_
#define MOTTO_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "event/stream.h"
#include "workload/data_gen.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Prints `what: status` to stderr and exits 2. The benchmark treats every
/// library error as fatal: a run that cannot complete reports no result.
[[noreturn]] void Die(const std::string& what, const motto::Status& status);
[[noreturn]] void Die(const std::string& message);

template <typename T>
T Must(motto::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what, result.status());
  return std::move(result).value();
}
inline void Must(const motto::Status& status, const std::string& what) {
  if (!status.ok()) Die(what, status);
}

/// Everything one run needs, from the command line (run.py passes the
/// workload's entry of workloads.json as flags).
struct Config {
  std::string workload;
  std::string dir;  // Inputs (workload.ccl, stream.csv) and scratch output.
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;

  // Generator parameters (GenerateWorkload / GenerateStream).
  motto::Scenario scenario = motto::Scenario::kStockMarket;
  int queries = 100;
  double ratio = 1.0;
  uint64_t query_seed = 7;
  int min_operands = 0;
  int max_operands = 0;
  int64_t events = 400000;
  double rate = 0.0;  // Events per stream second; 0 = scenario default.

  // Which user path the workload is about: "batch" (`motto run`) or
  // "serve" (`motto serve`); it decides which set-up setup_s reports.
  std::string primary = "batch";
  int setup_reps = 3;
  /// Share of `seconds` spent on alternating Executor and ShardedExecutor
  /// replays; the serve phase gets serve_reps repetitions.
  double replay_share = 1.0;
  int serve_reps = 1;
  /// Open-loop phase of each serve repetition: the first `open_events`
  /// events at `open_rate` events/s; the rest go closed-loop.
  uint64_t open_events = 100000;
  double open_rate = 50000.0;
};

/// Named metric values of one run, in insertion-independent order.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

double Median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);

motto::Result<std::string> ReadFile(const std::string& path);

/// Order-independent fingerprint of one sink's match multiset: the count
/// and the wrapping sum of a 64-bit hash of (sink name, constituents).
struct SinkPrint {
  uint64_t count = 0;
  uint64_t sum = 0;
  friend bool operator==(const SinkPrint&, const SinkPrint&) = default;
};
using MatchPrint = std::map<std::string, SinkPrint>;

}  // namespace perfbench

#endif  // MOTTO_PERFBENCH_BENCH_H_
