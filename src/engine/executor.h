#ifndef MOTTO_ENGINE_EXECUTOR_H_
#define MOTTO_ENGINE_EXECUTOR_H_

#include <limits>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "engine/graph.h"
#include "engine/runtime.h"
#include "event/stream.h"

namespace motto {

namespace obs {
class MetricsRegistry;
class TraceSink;
}  // namespace obs

/// Scheduler counters from the pipelined multi-threaded executor; all zero
/// for single-threaded runs. They expose how the pipeline behaved — how
/// often workers ran dry (parks), how work migrated between workers
/// (handoffs), and how deep the ready queue / per-node output rings got —
/// so "threads were actually busy" is checkable per run.
struct ParallelRunStats {
  int threads = 0;
  /// Raw-stream batches the run was split into (>= 1 even when empty).
  uint64_t batches = 0;
  /// Node activations executed (= nodes x batches).
  uint64_t node_activations = 0;
  /// Times a worker parked on the scheduler condition variable because no
  /// node was ready.
  uint64_t worker_parks = 0;
  /// Activations picked up by a different worker than the one that ran the
  /// node's previous activation.
  uint64_t handoffs = 0;
  /// High-water mark of the scheduler ready queue.
  uint64_t max_ready_depth = 0;
  /// High-water mark of any node's output-ring occupancy, in batches
  /// produced but not yet fully consumed downstream (bounded by the
  /// executor's pipe depth).
  uint64_t max_pipe_depth = 0;
  /// Worker-pool epochs dispatched by this executor so far (one per Run;
  /// a growing counter over a pool created once — no threads are spawned
  /// inside Run).
  uint64_t pool_epochs = 0;
  /// Times a node was held back from the ready queue solely because its
  /// output ring was full (only counted when metrics or tracing are on;
  /// zero otherwise).
  uint64_t backpressure_stalls = 0;
};

/// Per-shard counters from a ShardedExecutor run (DESIGN.md §12).
struct ShardRunStats {
  int shard = 0;
  int group = 0;
  int time_slices = 1;
  int slice_index = 0;
  /// Stream events whose timestamp interval this shard owns.
  uint64_t owned_events = 0;
  /// Warm-up prefix events replayed only to rebuild partial-match context
  /// (zero for whole-stream shards).
  uint64_t context_events = 0;
  uint64_t matches = 0;
  /// Wall time of this shard's replica run.
  double busy_seconds = 0.0;
};

/// Aggregate sharding counters; `shards == 0` for non-sharded runs.
struct ShardedRunStats {
  int shards = 0;
  int threads = 0;
  int groups = 0;
  double max_busy_seconds = 0.0;
  double mean_busy_seconds = 0.0;
  /// max/mean shard busy time: 1 = perfectly balanced, 0 = nothing ran.
  double skew = 0.0;
  std::vector<ShardRunStats> per_shard;
};

/// Per-sink liveness facts for the serving path (DESIGN.md §16): how many
/// matches this sink has emitted in the current session and when (event
/// time) the most recent one was sealed. The serve telemetry joins these
/// with released-line counts to compute outbox/commit lag per query.
struct SinkTelemetry {
  uint64_t matches = 0;
  /// end() timestamp of the most recent emitted match;
  /// numeric_limits<Timestamp>::min() when the sink never emitted.
  Timestamp last_emit_ts = std::numeric_limits<Timestamp>::min();
};

/// Outcome of replaying one stream through a JQP. (NodeStats lives in
/// runtime.h so node runtimes can fill their own counters.)
struct RunResult {
  /// Matches per user query (sink), in emission order. Empty when the run
  /// used ExecutorOptions::count_matches_only.
  std::unordered_map<std::string, std::vector<Event>> sink_events;
  /// Match counts per sink (always filled).
  std::unordered_map<std::string, uint64_t> sink_counts;
  uint64_t raw_events = 0;
  double elapsed_seconds = 0.0;
  std::vector<NodeStats> node_stats;
  /// Filled by ParallelExecutor runs; default-zero otherwise.
  ParallelRunStats parallel;
  /// Filled by ShardedExecutor runs; `sharded.shards == 0` otherwise.
  ShardedRunStats sharded;
  /// Spans the run's TraceSink had to drop at its cap (0 when tracing was
  /// off or nothing was dropped). Surfaced as the `trace.dropped_spans`
  /// metric and a RunReport warning so truncation is never silent.
  uint64_t trace_dropped_spans = 0;

  /// Raw input events per second of wall time.
  double ThroughputEps() const {
    return elapsed_seconds > 0 ? static_cast<double>(raw_events) /
                                     elapsed_seconds
                               : 0.0;
  }

  /// Total matches across all sinks.
  uint64_t TotalMatches() const;
};

/// Watermark of the final flush round that ends every run: past every
/// stream timestamp, so all windows expire, with headroom against overflow
/// in `watermark + window` arithmetic.
inline constexpr Timestamp kFinalWatermark =
    std::numeric_limits<Timestamp>::max() / 4;

/// Which matches one sink keeps (DESIGN.md §12.2, §14.2). A churn sink born
/// mid-stream keeps only matches with begin() >= begin_horizon, its add
/// point. A time-sliced shard's sink keeps only matches whose attribution
/// key falls in (min_exclusive, max_inclusive]. The key is the timestamp at
/// which the match's fate is sealed: end() for immediately-emitted matches,
/// begin() + deferred_window for negation-deferred sinks (the last instant
/// a negated event could still kill the pending match). The defaults keep
/// every match.
struct SinkOwnership {
  Timestamp begin_horizon = std::numeric_limits<Timestamp>::min();
  Timestamp min_exclusive = std::numeric_limits<Timestamp>::min();
  Timestamp max_inclusive = std::numeric_limits<Timestamp>::max();
  /// Set by Executor::SetSinkOwnership from the sink's node. >= 0: the node
  /// defers emission behind its negation window and the key is begin() +
  /// deferred_window; < 0: the key is end().
  Duration deferred_window = -1;

  bool OwnsAll() const {
    return begin_horizon == std::numeric_limits<Timestamp>::min() &&
           min_exclusive == std::numeric_limits<Timestamp>::min() &&
           max_inclusive == std::numeric_limits<Timestamp>::max();
  }
  bool Owns(const Event& match) const {
    if (match.begin() < begin_horizon) return false;
    Timestamp key = deferred_window >= 0 ? match.begin() + deferred_window
                                         : match.end();
    return key > min_exclusive && key <= max_inclusive;
  }
};

struct ExecutorOptions {
  /// Record per-node busy time (adds two clock reads per node activation;
  /// use on measurement runs, not throughput runs).
  bool collect_node_timing = false;
  /// Count sink matches without retaining the match events. Throughput
  /// benches use this so result accumulation (identical across plans) does
  /// not dilute the measured differences.
  bool count_matches_only = false;
  /// Run-scoped metrics registry (DESIGN.md §9); null disables metrics
  /// entirely — the executors then skip every instrumentation site behind a
  /// pointer test and node runtimes are detached from any prior registry.
  obs::MetricsRegistry* metrics = nullptr;
  /// Chrome trace-event sink; null disables tracing. When set, each node
  /// gets its own timeline row (tid = node id) carrying one span per
  /// activation, plus instant/counter events for watermarks, pool epochs,
  /// ready-queue depth and backpressure stalls.
  obs::TraceSink* trace = nullptr;
  /// Operand evaluation strategy for pattern nodes: arrival (eager, the
  /// reference semantics) or selectivity-ordered lazy matching along each
  /// node's PatternSpec::eval_order (DESIGN.md §13). Match multisets are
  /// identical either way; only per-event work changes. Forwarded to every
  /// node runtime (and, for ShardedExecutor, every shard replica) at the
  /// start of each run.
  EvalOrderMode eval_order = EvalOrderMode::kArrival;
};

/// Dumps a finished run's NodeStats / ParallelRunStats into `registry`
/// ("node.<i>.*", "run.*", "sched.*"); no-op when `registry` is null. The
/// executors call this at the end of an instrumented run; harnesses can call
/// it again on their own registries to archive a run.
void ExportRunMetrics(const RunResult& result, obs::MetricsRegistry* registry);

/// Folds `part` into `into`: matches append per sink name by moving, and
/// match counts, raw events and elapsed time add. `part`'s node i merges
/// into node global_nodes[i] of `into`; an empty `global_nodes` leaves node
/// stats alone. Merges shard replicas (DESIGN.md §12.3) and churn epochs
/// (§14.2).
void MergeRunResult(RunResult&& part, std::span<const int32_t> global_nodes,
                    RunResult* into);

/// Plan-static routing of a JQP, built once at Create by Executor and
/// ParallelExecutor (DESIGN.md §8).
struct PlanRouting {
  /// Nodes in topological order (inputs before consumers).
  std::vector<int32_t> topo_order;
  /// consumers[i] lists the nodes reading node i's output.
  std::vector<std::vector<int32_t>> consumers;
  /// raw_readers[type] lists, ascending, the nodes that must see raw events
  /// of that type (operands and negations). Dense by type id, so routing a
  /// raw event is an indexed load; types beyond the table reach no node.
  std::vector<std::vector<int32_t>> raw_readers;
  /// node_sinks[i] lists the positions in Jqp::sinks that node i answers.
  std::vector<std::vector<size_t>> node_sinks;
  /// movable[i]: node i feeds exactly one sink and no node, so its matches
  /// move into the sink instead of being deep-copied.
  std::vector<bool> movable;
};

/// Validates `jqp` and builds its routing table.
Result<PlanRouting> BuildPlanRouting(const Jqp& jqp);

/// Output of an open run or session, indexed by position in Jqp::sinks.
/// The name-keyed RunResult maps are filled from it once, by moving, when
/// the run ends (EndRun) or the session's outbox drains.
struct SinkOutputs {
  /// Per-sink match counts and last-emit times; the only per-sink counters
  /// while the run is open.
  std::vector<SinkTelemetry> telemetry;
  /// Retained matches per sink; empty under count_matches_only.
  std::vector<std::vector<Event>> events;

  /// Appends the emissions `out` of sink `sink`'s node. Without a rule, or
  /// with one that owns everything, the whole buffer is appended in bulk;
  /// otherwise only the matches `rule` owns. `movable`: nothing else reads
  /// `out`, so matches move instead of being copied.
  void Collect(size_t sink, std::vector<Event>& out, bool movable,
               const SinkOwnership* rule);
};

/// Starts a run of `jqp` on `runtimes` (parallel to its nodes): resets each
/// runtime, attaches its probe and evaluation mode, names the trace rows
/// (nodes, then `last_row`), empties `sinks`, and returns the result seeded
/// with one NodeStats per node and one map entry per sink.
RunResult StartRun(const Jqp& jqp,
                   const std::vector<std::unique_ptr<NodeRuntime>>& runtimes,
                   const ExecutorOptions& options, const char* last_row,
                   SinkOutputs* sinks);

/// Ends a run begun by StartRun: moves `sinks` into `result`'s maps, keyed
/// by sink name, adds each runtime's counters to its node stats, and records
/// the trace's dropped spans.
void EndRun(const Jqp& jqp,
            const std::vector<std::unique_ptr<NodeRuntime>>& runtimes,
            const ExecutorOptions& options, SinkOutputs* sinks,
            RunResult* result);

/// Single-threaded JQP executor. Replays a timestamp-ordered primitive
/// stream through the plan's nodes in topological order, advancing the
/// watermark to each raw event's timestamp.
class Executor {
 public:
  /// Validates the plan and instantiates node runtimes.
  static Result<Executor> Create(Jqp jqp);

  Executor(Executor&&) = default;
  Executor& operator=(Executor&&) = default;

  /// Replays `stream` (validated) and returns per-sink matches and timings.
  /// Can be called repeatedly; node state is reset per run.
  Result<RunResult> Run(const EventStream& stream,
                        const ExecutorOptions& options = ExecutorOptions{});

  /// Replays a contiguous span of an already-validated stream (sorted, all
  /// primitive). ShardedExecutor feeds each replica its slice-plus-context
  /// window through this without copying or re-validating the events.
  /// Equivalent to BeginSession + FeedSession + FinishSession.
  RunResult RunSpan(const Event* events, size_t count,
                    const ExecutorOptions& options = ExecutorOptions{});

  // --- Streaming session API (live plan migration, DESIGN.md §14) ---

  /// Starts a streaming session: resets node runtimes, installs probes and
  /// the evaluation mode, and initializes the accumulated result. Pointers
  /// inside `options` (metrics/trace) must stay valid until the session
  /// ends.
  void BeginSession(const ExecutorOptions& options = ExecutorOptions{});

  /// Feeds a contiguous, timestamp-ordered span of primitive events into
  /// the active session. May be called repeatedly; timestamps must be
  /// nondecreasing across calls.
  void FeedSession(const Event* events, size_t count);

  /// Forces a watermark-only round at `watermark` on every node, emitting
  /// every deferred match already sealed strictly before it. This is the
  /// hot-swap boundary flush: afterwards a removed query's sink has emitted
  /// exactly the matches whose fate was decided before the removal point,
  /// and everything still pending can be exported to the successor plan.
  void FlushSessionAt(Timestamp watermark);

  /// Ends the session WITHOUT the final flush and returns the result so
  /// far; node runtimes keep their live state for ExportState handoff.
  RunResult SuspendSession();

  /// Ends the session with the final flush (all windows expire), collects
  /// node stats and exports metrics — the streaming tail of RunSpan.
  RunResult FinishSession();

  /// Moves the matches accumulated since BeginSession (or the previous
  /// drain) out of the active session, keyed by sink name. Counts in the
  /// eventual session result stay cumulative; only the retained events are
  /// handed off. This is `motto serve`'s checkpoint outbox: matches leave
  /// the engine in bounded batches instead of accruing for the process
  /// lifetime, and each batch becomes durable with the snapshot that
  /// captured it (DESIGN.md §15).
  std::unordered_map<std::string, std::vector<Event>> DrainSessionOutput();

  /// Node runtime accessor for state migration (ExportState/ImportState).
  NodeRuntime* runtime(int32_t node) {
    return runtimes_[static_cast<size_t>(node)].get();
  }

  /// Live per-sink emission facts of the active session, parallel to
  /// Jqp::sinks. Counts are cumulative since BeginSession and unaffected by
  /// DrainSessionOutput. Engine-thread only (same discipline as Feed).
  const std::vector<SinkTelemetry>& session_sink_telemetry() const {
    return sinks_.telemetry;
  }

  /// Copies the active session's per-node counters so far (events in/out
  /// plus each runtime's arena/partial counters) without disturbing the
  /// session. Engine-thread only; `out` is overwritten.
  void SnapshotSessionNodeStats(std::vector<NodeStats>* out) const;

  /// Installs one ownership rule per sink, parallel to Jqp::sinks, and sets
  /// each rule's deferred_window from its sink's node; empty (the default)
  /// keeps every match. Applies to Run/RunSpan and sessions alike and
  /// persists across runs.
  void SetSinkOwnership(std::vector<SinkOwnership> rules);

  const Jqp& jqp() const { return jqp_; }

 private:
  explicit Executor(Jqp jqp);

  /// One executor round: watermark + this round's inputs on every activated
  /// node in topo order, then sink collection (shared by the batch and
  /// session paths; reads session_options_/session_result_/session_seq_).
  void ProcessRound(const Event* raw, Timestamp watermark, bool activate_all);

  Jqp jqp_;
  PlanRouting routing_;
  std::vector<std::unique_ptr<NodeRuntime>> runtimes_;
  /// Per-sink ownership rules (SetSinkOwnership); empty = keep everything.
  std::vector<SinkOwnership> ownership_;

  // Per-run scratch, reused across Run() calls (Run is not re-entrant; node
  // runtimes are stateful anyway).
  std::vector<std::vector<Event>> buffers_;
  std::vector<uint64_t> raw_stamp_;
  std::vector<uint64_t> active_stamp_;

  // Active-session state (also carries one RunSpan invocation).
  ExecutorOptions session_options_;
  RunResult session_result_;
  SinkOutputs sinks_;
  uint64_t session_seq_ = 0;
  bool session_active_ = false;
};

}  // namespace motto

#endif  // MOTTO_ENGINE_EXECUTOR_H_
