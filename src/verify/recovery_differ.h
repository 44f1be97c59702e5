#ifndef MOTTO_VERIFY_RECOVERY_DIFFER_H_
#define MOTTO_VERIFY_RECOVERY_DIFFER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ccl/pattern.h"
#include "common/result.h"
#include "event/stream.h"
#include "verify/differ.h"
#include "verify/fuzzer.h"

namespace motto::verify {

/// Crash-recovery differential harness for `motto serve` (DESIGN.md §15).
///
/// Each fuzzed case builds a (workload, stream, kill-plan) triple, renders
/// the stream as a wire-frame sequence with interleaved watermark / flush /
/// checkpoint control frames, and checks the recovery invariant: a server
/// killed at arbitrary frame boundaries (including mid-checkpoint and with
/// post-kill disk damage), restarted from the latest valid snapshot and
/// re-fed from its reported resume offset, must release exactly the match
/// multiset of a never-killed run — which itself must equal the batch
/// Executor and ShardedExecutor on the same plan. Additionally, everything
/// durable before each kill must be a sub-multiset of the final output
/// (nothing ever released gets lost or contradicted).

struct RecoveryDifferOptions {
  /// Root seed; case i uses seed + i (same convention as DifferOptions).
  uint64_t seed = 1;
  int iterations = 40;
  FuzzOptions fuzz = {.num_event_types = 5, .num_events = 160, .max_gap = 15};
  /// Sharded cross-check configuration.
  int shards = 5;
  int threads = 2;
  /// Scratch root for checkpoint/output directories; empty uses the system
  /// temp directory. Case subdirectories are removed after each case.
  std::string work_dir;
};

/// Runs one case: batch reference, sharded cross-check, uninterrupted
/// serve run, then the killed-and-recovered run per `spec.kills`; returns
/// the per-sink multiset mismatches (empty report = invariant held).
Result<CaseReport> CheckRecoveryCase(const std::vector<Query>& queries,
                                     const EventStream& stream,
                                     EventTypeRegistry* registry,
                                     const RecoveryCaseSpec& spec);

/// The fuzz loop behind `motto verify --recovery`: RunCases over
/// CheckRecoveryCase, each case alternating eval-order modes, with a
/// randomized checkpoint interval and a 1-2 kill plan of mixed kinds.
Result<DiffOutcome> RunRecoveryDiffer(const RecoveryDifferOptions& options);

}  // namespace motto::verify

#endif  // MOTTO_VERIFY_RECOVERY_DIFFER_H_
