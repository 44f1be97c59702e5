#ifndef MOTTO_VERIFY_DIFFER_H_
#define MOTTO_VERIFY_DIFFER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ccl/pattern.h"
#include "common/result.h"
#include "engine/executor.h"
#include "engine/runtime.h"
#include "event/stream.h"
#include "motto/churn.h"
#include "verify/fuzzer.h"
#include "verify/oracle.h"

namespace motto::verify {

/// One query whose match multiset differs from the reference on one path.
struct Mismatch {
  std::string query;
  std::string path;  // "matcher", "unshared", "motto-bnb", "churn-lazy", ...
  size_t oracle_count = 0;
  size_t path_count = 0;
  /// Sample fingerprints present on only one side (capped).
  std::vector<std::string> missing;  // reference has, path lacks
  std::vector<std::string> extra;    // path has, reference lacks
};

struct CaseReport {
  std::vector<Mismatch> mismatches;
  bool ok() const { return mismatches.empty(); }
  /// Records a mismatch of `query` on `path` unless `got` equals
  /// `expected`, with a few sample fingerprints from each side.
  void Diff(const std::string& path, const std::string& query,
            const MatchSet& expected, const MatchSet& got);
  std::string ToString() const;
};

/// The match multiset of every sink of `run` (NA plans also have sinks for
/// inner "name#inN" sub-queries).
std::map<std::string, MatchSet> SinkMatches(const RunResult& run);

struct RecoveryKill {
  enum class Kind {
    /// Abandon the server at a frame boundary (SIGKILL equivalent: the
    /// core writes output only inside checkpoint releases, so dropping the
    /// object loses exactly what a kill would lose).
    kPlain,
    /// After the kill, forge a torn higher-seq snapshot file: recovery
    /// must skip it with a warning and use the previous valid one.
    kTornCheckpoint,
    /// After the kill, tear the output file's un-checkpointed tail
    /// (a kill mid-release-append); bytes covered by the latest valid
    /// snapshot's released-line horizon are never touched, matching what
    /// a real crash can tear.
    kTornOutput,
    /// Fault injection inside the server: the checkpoint becomes durable
    /// but the process dies before releasing its outbox — the kill window
    /// between the snapshot rename and the output append.
    kMidCheckpoint,
  };

  /// Kill once `ingested` reaches this many events (thresholds ascend
  /// across the plan, so later kills can land during catch-up replay).
  uint64_t after_events = 0;
  Kind kind = Kind::kPlain;
};

/// Everything that parameterizes one recovery case beyond the fuzzed
/// workload/stream pair.
struct RecoveryCaseSpec {
  std::vector<RecoveryKill> kills;
  EvalOrderMode eval_order = EvalOrderMode::kArrival;
  uint64_t checkpoint_interval = 10;
  int shards = 5;
  int threads = 2;
  /// Seeds the control-frame interleaving.
  uint64_t frame_seed = 1;
  /// Scratch directory for this case (created/overwritten as needed).
  std::string case_dir;
};

/// One differential case: a fuzzed workload and stream, plus the churn
/// script of a churn case or the kill plan of a recovery case.
struct DiffCase : FuzzCase {
  ChurnScript script;
  std::optional<RecoveryCaseSpec> recovery;
};

/// One kind's check of a case: an empty report means every path agreed
/// with its reference; kOutOfRange means the case is over budget and
/// counts as skipped.
using CaseCheck =
    std::function<Result<CaseReport>(const DiffCase&, EventTypeRegistry*)>;

/// Minimizes a failing case in place, keeping each candidate that `check`
/// still reports a mismatch on: greedily drops whole queries, script
/// commands and kills and lowers the checkpoint interval until nothing
/// more goes, then ddmin-shrinks the stream chunk by chunk. Returns the
/// number of checks spent (at most 400).
int ShrinkCase(DiffCase* c, EventTypeRegistry* registry,
               const CaseCheck& check);

/// A failing case, minimized and rendered self-contained (no registry
/// needed to consume it), ready to paste into a pinned test.
struct Failure {
  uint64_t case_seed = 0;
  std::string report;
  std::string workload_text;
  std::string stream_csv;
  /// The churn script in `motto run --churn` format; empty if none.
  std::string script;
  /// The recovery case as a `RecoveryCaseSpec` initializer; empty if none.
  std::string kill_plan;
  /// Shell commands that replay the failure; empty if none does.
  std::string repro;
  std::string ToString() const;
};

struct DiffOutcome {
  int iterations = 0;
  /// Cases left unchecked: over the oracle or match budget, or too short
  /// for the kind's script or kill plan.
  int skipped = 0;
  /// Kills in the kill plans of the checked cases, by kind.
  std::map<RecoveryKill::Kind, uint64_t> kills;
  std::vector<Failure> failures;
  bool ok() const { return failures.empty(); }
};

/// One kind's derivation of case number `index` (seed `case_seed`): it
/// completes the case after `fuzzer` drew its workload and stream, and
/// returns false to leave the case unchecked.
using CaseDerivation = std::function<bool(
    uint64_t case_seed, int index, QueryFuzzer* fuzzer, DiffCase* c)>;

/// The differential fuzz loop of every kind (plan, churn, recovery): case i
/// fuzzes with seed `seed + i`, is completed by `derive` (if any) and
/// checked by `check`; a failing case is shrunk with `check` and reported.
Result<DiffOutcome> RunCases(uint64_t seed, int iterations,
                             const FuzzOptions& fuzz,
                             const CaseDerivation& derive,
                             const CaseCheck& check);

struct DifferOptions {
  /// Root seed. Iteration i of a run fuzzes with case seed `seed + i`, so
  /// `--seed=<seed+i> --iters=1` replays exactly that case.
  uint64_t seed = 1;
  int iterations = 100;
  FuzzOptions fuzz;
  /// Worker count for the ParallelExecutor path.
  int threads = 3;
  /// Shard count for the ShardedExecutor path. Fuzz workloads often reduce
  /// to a handful of components, so a count above that forces time-sliced
  /// replicas and drives match attribution across slice boundaries.
  int shards = 5;
  /// When non-empty, failures dump `<dir>/case_<seed>.ccl/.csv` repro files.
  std::string dump_dir;
};

/// Runs every execution path — oracle, per-query NFA matcher plans,
/// whole-workload unshared plan (in arrival order and in selectivity-
/// ordered lazy mode), MOTTO JQP from the exact solver (both eval modes),
/// MOTTO JQP from simulated annealing, and the parallel and sharded
/// executors over the exact JQP — on one (workload, stream) pair and diffs
/// all per-query match multisets against the oracle. kOutOfRange means the
/// oracle budget was exceeded (callers treat the case as skipped).
Result<CaseReport> CheckCase(const std::vector<Query>& queries,
                             const EventStream& stream,
                             EventTypeRegistry* registry,
                             const DifferOptions& options);

/// The plan differ: RunCases over CheckCase, failures dumped to
/// `dump_dir` when set.
Result<DiffOutcome> RunDiffer(const DifferOptions& options);

}  // namespace motto::verify

#endif  // MOTTO_VERIFY_DIFFER_H_
