#ifndef MOTTO_BENCH_BENCH_UTIL_H_
#define MOTTO_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "workload/data_gen.h"

namespace motto::bench {

using enum FlagKind;
using enum FlagMin;

/// Parses a figure bench's flags against its table (common/flags.h) and
/// prints the bench's banner. --help prints the usage and exits 0; a flag
/// the table refuses prints the error and exits 1.
inline FlagSet ParseFlags(int argc, char** argv, std::vector<FlagSpec> specs,
                          const std::string& title,
                          const std::string& description) {
  FlagSet flags(std::string("usage: ") + argv[0] + " [flags]\n  " + title +
                    ": " + description,
                std::move(specs));
  Status status = flags.Parse(std::vector<std::string>(argv + 1, argv + argc));
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    std::exit(1);
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage().c_str());
    std::exit(0);
  }
  std::printf("== %s ==\n%s\n\n", title.c_str(), description.c_str());
  return flags;
}

/// The stream a figure bench replays: --events stock-market events generated
/// from --seed.
inline EventStream BenchStream(const FlagSet& flags,
                               EventTypeRegistry* registry) {
  StreamOptions options;
  options.num_events = flags.Int("events");
  options.seed = static_cast<uint64_t>(flags.Int("seed"));
  return GenerateStream(options, registry);
}

}  // namespace motto::bench

#endif  // MOTTO_BENCH_BENCH_UTIL_H_
