#ifndef MOTTO_VERIFY_CHURN_DIFFER_H_
#define MOTTO_VERIFY_CHURN_DIFFER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ccl/pattern.h"
#include "common/result.h"
#include "event/stream.h"
#include "motto/churn.h"
#include "verify/differ.h"
#include "verify/fuzzer.h"

namespace motto::verify {

struct ChurnDifferOptions {
  /// Root seed; iteration i fuzzes with case seed `seed + i`.
  uint64_t seed = 1;
  int iterations = 20;
  /// Shape of the initial fuzzed workload and stream.
  FuzzOptions fuzz;
  /// Queries added mid-stream per case (named "c0", "c1", ...).
  int added_queries = 2;
  /// Queries removed mid-stream per case (drawn from initial and added).
  int removals = 2;
};

/// Migration-equivalence check of one (initial workload, churn script,
/// stream) case: runs the live churn path in both evaluation-order modes and
/// diffs every user query's match multiset against a from-scratch oracle —
/// the query compiled alone (NA plan) and replayed over exactly its live
/// window's slice of the stream, via the single-threaded executor and, as a
/// cross-check, the sharded executor. For a query removed at T_r the oracle
/// keeps only matches whose fate was sealed before T_r (negation-deferred
/// roots: begin + window < T_r; immediate roots seal on completion, which
/// the slice already bounds), so "removed queries emit nothing past their
/// remove point" is part of the multiset equality.
Result<CaseReport> CheckChurnCase(const std::vector<Query>& initial,
                                  const ChurnScript& script,
                                  const EventStream& stream,
                                  EventTypeRegistry* registry,
                                  const ChurnDifferOptions& options);

/// The churn differ: RunCases over CheckChurnCase, where each case adds to
/// its fuzzed workload and stream a deterministic add/remove script
/// spanning the stream (a stream too short to schedule it is skipped).
Result<DiffOutcome> RunChurnDiffer(const ChurnDifferOptions& options);

}  // namespace motto::verify

#endif  // MOTTO_VERIFY_CHURN_DIFFER_H_
