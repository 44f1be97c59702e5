#ifndef MOTTO_PERFBENCH_CHECK_H_
#define MOTTO_PERFBENCH_CHECK_H_

#include <string>

#include "bench.h"
#include "engine/executor.h"

namespace perfbench {

/// Fingerprints the retained matches of a run, one entry per sink.
MatchPrint PrintRun(const motto::RunResult& run);

/// Fingerprints the match lines `motto serve` released into `out_dir`
/// ("sink\tbegin\tend\tfingerprint" per line, every conn<k>.matches file).
motto::Result<MatchPrint> PrintMatchFiles(const std::string& out_dir);

/// Name of the first sink whose multiset differs (sinks without matches
/// count as empty on either side); empty when the prints agree.
std::string FirstMismatch(const MatchPrint& got, const MatchPrint& want);

}  // namespace perfbench

#endif  // MOTTO_PERFBENCH_CHECK_H_
