#include "engine/parallel_executor.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace motto {

namespace {

using Clock = std::chrono::steady_clock;

/// Round index of the final-flush pseudo-round (sorts after every real
/// round). Real rounds are stream positions, exactly as in the
/// single-threaded executor's per-event loop.
constexpr int64_t kFinalRound = std::numeric_limits<int64_t>::max();

/// One input item for a node within a batch: the event plus the *round*
/// (stream position of the driving raw event) in which the single-threaded
/// executor would have delivered it. Grouping by round — not by timestamp —
/// matters twice over: streams may carry tied timestamps (each raw event
/// still gets its own round), and node runtimes see exactly one
/// OnWatermark call per active round, which stateful runtimes observe
/// (e.g. the matcher's periodic expiry sweep counts watermark calls).
/// channel_rank orders items within a round the same way the
/// single-threaded executor does (raw first, then upstream channels).
struct BatchItem {
  int64_t round;
  int32_t channel_rank;
  Channel channel;
  const Event* event;
};

}  // namespace

/// All mutable per-run state of the pipelined scheduler. Fields split into
/// two planes:
///   * scheduler plane — guarded by `mu` (ready queue, per-node batch
///     cursors, slot refcount decrements, counters);
///   * data plane — touched only by the single worker owning a node's
///     current activation (rings' contents, scratch, per-worker stats).
/// The completion lock acquisition orders every data-plane write before any
/// other worker can observe the node's advanced batch cursor.
struct ParallelExecutor::Pipeline {
  struct NodeState {
    // Scheduler plane.
    int64_t next_batch = 0;  ///< Next batch this node will process.
    int64_t released = 0;    ///< Output batches fully consumed downstream.
    bool queued = false;     ///< In the ready queue or currently running.
    int last_worker = -1;
    // Data plane.
    /// Output ring: slot b % pipe_depth holds the node's emissions for
    /// batch b while any consumer still needs them.
    std::vector<std::vector<Event>> ring;
    /// Round boundaries per ring slot: (round, end offset) pairs so
    /// consumers can attribute each emitted event to the round that
    /// produced it. Events [prev end, end) belong to `round`.
    std::vector<std::vector<std::pair<int64_t, size_t>>> ring_rounds;
    /// Per slot: consumer reads outstanding before the slot frees.
    std::vector<int> slot_refs;
    std::vector<Event> out;        ///< Activation output scratch.
    std::vector<std::pair<int64_t, size_t>> out_rounds;  ///< Scratch.
    std::vector<BatchItem> items;  ///< Input-merge scratch.
  };

  std::mutex mu;
  std::condition_variable cv;
  std::deque<int32_t> ready;
  std::vector<NodeState> nodes;
  /// worker_stats[worker][node]: per-worker accumulation merged at run end,
  /// so activations never contend on shared counters.
  std::vector<std::vector<NodeStats>> worker_stats;
  int64_t num_batches = 0;
  int64_t remaining = 0;  ///< Node activations left in this run.
  int in_flight = 0;      ///< Activations currently executing.
  int waiting = 0;        ///< Workers parked on `cv` right now; completion
                          ///< paths skip the notify syscall when zero.
  uint64_t parks = 0;
  uint64_t handoffs = 0;
  uint64_t activations = 0;
  uint64_t max_ready_depth = 0;
  uint64_t max_pipe_depth = 0;
  uint64_t backpressure_stalls = 0;
  /// Highest batch any worker has started; gates one batch-start trace
  /// instant per batch (scheduler plane, guarded by mu).
  int64_t max_started_batch = -1;
  /// Per-worker metric shards (only allocated when the run's options carry
  /// a registry); merged into the caller's registry at run end so workers
  /// never contend on shared instruments.
  std::vector<std::unique_ptr<obs::MetricsRegistry>> worker_shards;
  /// Per-sink output (data plane): each sink is written only by the worker
  /// owning its node's current activation.
  SinkOutputs sinks;
};

ParallelExecutor::ParallelExecutor(Jqp jqp, int num_threads, size_t batch_size,
                                   size_t pipe_depth)
    : jqp_(std::move(jqp)),
      num_threads_(num_threads),
      batch_size_(batch_size),
      pipe_depth_(pipe_depth) {}

ParallelExecutor::ParallelExecutor(ParallelExecutor&&) = default;
ParallelExecutor& ParallelExecutor::operator=(ParallelExecutor&&) = default;
ParallelExecutor::~ParallelExecutor() = default;

Result<ParallelExecutor> ParallelExecutor::Create(Jqp jqp, int num_threads,
                                                  size_t batch_size,
                                                  size_t pipe_depth) {
  if (num_threads < 1) {
    return InvalidArgumentError("num_threads must be >= 1");
  }
  if (batch_size < 1) {
    return InvalidArgumentError("batch_size must be >= 1");
  }
  if (pipe_depth < 1) {
    return InvalidArgumentError("pipe_depth must be >= 1");
  }
  MOTTO_ASSIGN_OR_RETURN(PlanRouting routing, BuildPlanRouting(jqp));
  ParallelExecutor executor(std::move(jqp), num_threads, batch_size,
                            pipe_depth);
  for (const JqpNode& node : executor.jqp_.nodes) {
    executor.runtimes_.push_back(MakeNodeRuntime(node.spec));
  }
  executor.raw_types_.assign(executor.jqp_.nodes.size(), {});
  for (size_t t = 0; t < routing.raw_readers.size(); ++t) {
    for (int32_t node : routing.raw_readers[t]) {
      std::vector<bool>& types = executor.raw_types_[static_cast<size_t>(node)];
      if (types.empty()) types.assign(routing.raw_readers.size(), false);
      types[t] = true;
    }
  }
  executor.routing_ = std::move(routing);
  if (num_threads > 1) {
    executor.pool_ = std::make_unique<WorkerPool>(num_threads - 1);
  }
  executor.pipeline_ = std::make_unique<Pipeline>();
  return executor;
}

bool ParallelExecutor::NodeReady(const Pipeline& p, int32_t idx) const {
  size_t ui = static_cast<size_t>(idx);
  const Pipeline::NodeState& s = p.nodes[ui];
  if (s.queued || s.next_batch >= p.num_batches) return false;
  // Backpressure: a producer may run at most pipe_depth batches ahead of
  // its slowest consumer (terminal nodes buffer nothing).
  if (!routing_.consumers[ui].empty() &&
      s.next_batch - s.released >= static_cast<int64_t>(pipe_depth_)) {
    return false;
  }
  for (int32_t input : jqp_.nodes[ui].inputs) {
    if (p.nodes[static_cast<size_t>(input)].next_batch <= s.next_batch) {
      return false;
    }
  }
  return true;
}

bool ParallelExecutor::BackpressureOnly(const Pipeline& p, int32_t idx) const {
  size_t ui = static_cast<size_t>(idx);
  const Pipeline::NodeState& s = p.nodes[ui];
  if (s.queued || s.next_batch >= p.num_batches) return false;
  if (routing_.consumers[ui].empty() ||
      s.next_batch - s.released < static_cast<int64_t>(pipe_depth_)) {
    return false;
  }
  for (int32_t input : jqp_.nodes[ui].inputs) {
    if (p.nodes[static_cast<size_t>(input)].next_batch <= s.next_batch) {
      return false;
    }
  }
  return true;
}

void ParallelExecutor::ProcessActivation(Pipeline& p,
                                         const EventStream& stream,
                                         const ExecutorOptions& options,
                                         int32_t idx, int64_t batch,
                                         int worker_id) {
  size_t ui = static_cast<size_t>(idx);
  Pipeline::NodeState& s = p.nodes[ui];
  NodeRuntime& runtime = *runtimes_[ui];
  const JqpNode& node = jqp_.nodes[ui];
  NodeStats& stats = p.worker_stats[static_cast<size_t>(worker_id)][ui];
  bool final_flush = batch == p.num_batches - 1;
  size_t lo = std::min(stream.size(),
                       static_cast<size_t>(batch) * batch_size_);
  size_t hi = std::min(stream.size(), lo + batch_size_);

  std::vector<Event>& out = s.out;
  out.clear();
  std::vector<std::pair<int64_t, size_t>>& out_rounds = s.out_rounds;
  out_rounds.clear();
  bool track_rounds = !routing_.consumers[ui].empty();
  // When tracing, the span's begin/end double as the busy-time clock reads
  // so the traced and untraced timing paths cost the same.
  obs::TraceSink* trace = options.trace;
  double span_start = 0.0;
  Clock::time_point node_start;
  if (trace != nullptr) {
    span_start = trace->NowMicros();
  } else if (options.collect_node_timing) {
    node_start = Clock::now();
  }

  std::vector<BatchItem>& items = s.items;
  items.clear();
  int sources = 0;  // Distinct contributing channels; one channel's items
                    // are already in round order, so merging is only needed
                    // when two or more interleave.
  const std::vector<bool>& raw_set = raw_types_[ui];
  if (!raw_set.empty()) {
    for (const Event* e = stream.data() + lo; e != stream.data() + hi; ++e) {
      size_t type = static_cast<size_t>(e->type());
      if (type < raw_set.size() && raw_set[type]) {
        items.push_back(BatchItem{e - stream.data(), 0, kRawChannel, e});
      }
    }
    if (!items.empty()) ++sources;
  }
  for (size_t c = 0; c < node.inputs.size(); ++c) {
    const Pipeline::NodeState& upstream =
        p.nodes[static_cast<size_t>(node.inputs[c])];
    size_t slot = static_cast<size_t>(batch) % pipe_depth_;
    const std::vector<Event>& produced = upstream.ring[slot];
    size_t begin = 0;
    for (const auto& [round, end] : upstream.ring_rounds[slot]) {
      for (size_t i = begin; i < end; ++i) {
        items.push_back(BatchItem{round, static_cast<int32_t>(c) + 1,
                                  static_cast<Channel>(c + 1), &produced[i]});
      }
      begin = end;
    }
    if (begin > 0) ++sources;
  }
  if (sources > 1) {
    std::stable_sort(items.begin(), items.end(),
                     [](const BatchItem& a, const BatchItem& b) {
                       if (a.round != b.round) return a.round < b.round;
                       return a.channel_rank < b.channel_rank;
                     });
  }
  // Replay the single-threaded executor's round structure: one OnWatermark
  // per round this node is active in, then that round's events (raw first,
  // then upstream channels in input order).
  int64_t current_round = -1;
  auto close_round = [&] {
    if (track_rounds && current_round >= 0 &&
        out.size() > (out_rounds.empty() ? 0 : out_rounds.back().second)) {
      out_rounds.emplace_back(current_round, out.size());
    }
  };
  for (const BatchItem& item : items) {
    if (item.round != current_round) {
      close_round();
      current_round = item.round;
      runtime.OnWatermark(
          item.round == kFinalRound
              ? kFinalWatermark
              : stream[static_cast<size_t>(item.round)].begin(),
          &out);
    }
    runtime.OnEvent(item.channel, *item.event, &out);
  }
  stats.events_in += items.size();
  if (final_flush && current_round != kFinalRound) {
    close_round();
    current_round = kFinalRound;
    runtime.OnWatermark(kFinalWatermark, &out);
  }
  close_round();
  if (trace != nullptr) {
    double span_end = trace->NowMicros();
    trace->Span("batch", "node", static_cast<int64_t>(ui), span_start,
                span_end - span_start,
                "{\"batch\":" + std::to_string(batch) +
                    ",\"events_in\":" + std::to_string(items.size()) +
                    ",\"events_out\":" + std::to_string(out.size()) + "}");
    stats.busy_seconds += (span_end - span_start) * 1e-6;
  } else if (options.collect_node_timing) {
    stats.busy_seconds +=
        std::chrono::duration<double>(Clock::now() - node_start).count();
  }
  stats.events_out += out.size();
  if (!p.worker_shards.empty()) {
    // Each worker records into its own shard (merged at run end), so no
    // instrument is ever written from two threads.
    obs::MetricsRegistry& shard =
        *p.worker_shards[static_cast<size_t>(worker_id)];
    shard.GetHistogram("sched.activation_events", obs::SizeBounds())
        ->Record(static_cast<double>(items.size()));
    shard.GetCounter("worker." + std::to_string(worker_id) + ".activations")
        ->Add();
  }

  // Sink accumulation: this node's activations run in batch order, one
  // worker at a time, so per-sink appends need no lock and the emission
  // order matches the single-threaded executor.
  for (size_t sink : routing_.node_sinks[ui]) {
    p.sinks.Collect(sink, out, routing_.movable[ui], nullptr);
  }

  // Publish to consumers: swap into the ring slot (the displaced vector's
  // stale events die at the next activation's out.clear()).
  if (track_rounds) {
    size_t slot = static_cast<size_t>(batch) % pipe_depth_;
    std::vector<Event>& slot_events = s.ring[slot];
    slot_events.clear();
    std::swap(slot_events, out);
    s.ring_rounds[slot].clear();
    std::swap(s.ring_rounds[slot], out_rounds);
    s.slot_refs[slot] = static_cast<int>(routing_.consumers[ui].size());
  }
}

void ParallelExecutor::WorkerLoop(Pipeline& p, const EventStream& stream,
                                  const ExecutorOptions& options,
                                  int worker_id) {
  obs::TraceSink* trace = options.trace;
  // Stall attribution runs extra ready-checks per completion; only pay for
  // it when someone is looking.
  const bool observe = trace != nullptr || options.metrics != nullptr;
  const int64_t sched_tid = static_cast<int64_t>(jqp_.nodes.size());
  std::unique_lock<std::mutex> lock(p.mu);
  while (true) {
    while (p.ready.empty() && p.remaining > 0) {
      // A DAG with pipe_depth >= 1 cannot stall: some unfinished node is
      // always runnable or running (induction from the sinks, which are
      // never backpressured). Check instead of hanging if that breaks.
      MOTTO_CHECK(p.in_flight > 0)
          << "pipeline stalled with " << p.remaining << " activations left";
      ++p.parks;
      ++p.waiting;
      p.cv.wait(lock);
      --p.waiting;
    }
    if (p.remaining == 0) break;
    int32_t idx = p.ready.front();
    p.ready.pop_front();
    Pipeline::NodeState& s = p.nodes[static_cast<size_t>(idx)];
    int64_t batch = s.next_batch;
    if (s.last_worker >= 0 && s.last_worker != worker_id) ++p.handoffs;
    s.last_worker = worker_id;
    ++p.in_flight;
    if (trace != nullptr && batch > p.max_started_batch) {
      p.max_started_batch = batch;
      trace->Instant("batch_start", sched_tid, trace->NowMicros(),
                     "{\"batch\":" + std::to_string(batch) + "}");
    }
    lock.unlock();

    ProcessActivation(p, stream, options, idx, batch, worker_id);

    lock.lock();
    ++p.activations;
    --p.in_flight;
    s.next_batch = batch + 1;
    s.queued = false;
    if (--p.remaining == 0) {
      // Wake parked workers so they observe completion.
      if (p.waiting > 0) p.cv.notify_all();
      break;
    }
    int wakeups = 0;
    auto try_enqueue = [&](int32_t candidate) {
      if (!NodeReady(p, candidate)) {
        if (observe && BackpressureOnly(p, candidate)) {
          ++p.backpressure_stalls;
          if (trace != nullptr) {
            trace->Instant("backpressure", static_cast<int64_t>(candidate),
                           trace->NowMicros());
          }
        }
        return;
      }
      p.nodes[static_cast<size_t>(candidate)].queued = true;
      p.ready.push_back(candidate);
      p.max_ready_depth = std::max<uint64_t>(p.max_ready_depth,
                                             p.ready.size());
      ++wakeups;
    };
    size_t ui = static_cast<size_t>(idx);
    if (!routing_.consumers[ui].empty()) {
      p.max_pipe_depth = std::max<uint64_t>(
          p.max_pipe_depth,
          static_cast<uint64_t>(s.next_batch - s.released));
      for (int32_t consumer : routing_.consumers[ui]) try_enqueue(consumer);
    }
    // Release the input slots this activation consumed; producers blocked
    // on a full ring may become runnable again.
    for (int32_t input : jqp_.nodes[ui].inputs) {
      Pipeline::NodeState& us = p.nodes[static_cast<size_t>(input)];
      size_t slot = static_cast<size_t>(batch) % pipe_depth_;
      if (--us.slot_refs[slot] == 0) {
        us.released = batch + 1;
        try_enqueue(input);
      }
    }
    try_enqueue(idx);  // This node may immediately be ready for batch+1.
    if (trace != nullptr) {
      trace->CounterValue("ready_depth", trace->NowMicros(),
                          static_cast<double>(p.ready.size()));
    }
    // The current worker takes one item itself without parking; extra ready
    // nodes need sleeping workers — but only as many notifies as there are
    // actual waiters (each notify is a futex syscall on the hot path).
    for (int n = std::min(wakeups - 1, p.waiting); n > 0; --n) {
      p.cv.notify_one();
    }
  }
}

Result<RunResult> ParallelExecutor::Run(const EventStream& stream,
                                        const ExecutorOptions& options) {
  MOTTO_RETURN_IF_ERROR(ValidateStream(stream));
  // Probe writes happen under activation ownership (one worker per node at
  // a time), so the shared registry's instruments are single-writer; the
  // instrument map itself is only mutated here, before workers start.
  Pipeline& p = *pipeline_;
  RunResult result = StartRun(jqp_, runtimes_, options, "scheduler", &p.sinks);
  result.raw_events = stream.size();
  size_t n = jqp_.nodes.size();
  obs::TraceSink* trace = options.trace;

  // Reset the pipeline; rings and scratch keep their capacity across runs.
  p.num_batches =
      stream.empty()
          ? 1  // One empty batch still runs the final watermark flush.
          : static_cast<int64_t>((stream.size() + batch_size_ - 1) /
                                 batch_size_);
  p.remaining = static_cast<int64_t>(n) * p.num_batches;
  p.in_flight = 0;
  p.parks = p.handoffs = p.activations = 0;
  p.max_ready_depth = p.max_pipe_depth = 0;
  p.backpressure_stalls = 0;
  p.max_started_batch = -1;
  p.worker_shards.clear();
  if (options.metrics != nullptr) {
    p.worker_shards.resize(static_cast<size_t>(num_threads_));
    for (auto& shard : p.worker_shards) {
      shard = std::make_unique<obs::MetricsRegistry>();
    }
  }
  p.ready.clear();
  p.nodes.resize(n);
  for (Pipeline::NodeState& s : p.nodes) {
    s.next_batch = 0;
    s.released = 0;
    s.queued = false;
    s.last_worker = -1;
    s.ring.resize(pipe_depth_);
    for (std::vector<Event>& slot : s.ring) slot.clear();
    s.ring_rounds.resize(pipe_depth_);
    for (auto& slot : s.ring_rounds) slot.clear();
    s.slot_refs.assign(pipe_depth_, 0);
  }
  p.worker_stats.resize(static_cast<size_t>(num_threads_));
  for (std::vector<NodeStats>& per_worker : p.worker_stats) {
    per_worker.assign(n, NodeStats{});
  }
  for (size_t i = 0; i < n; ++i) {
    int32_t idx = static_cast<int32_t>(i);
    if (NodeReady(p, idx)) {
      p.nodes[i].queued = true;
      p.ready.push_back(idx);
    }
  }
  p.max_ready_depth = p.ready.size();

  Clock::time_point run_start = Clock::now();
  if (trace != nullptr) {
    trace->Instant("pool_epoch", static_cast<int64_t>(n), trace->NowMicros(),
                   "{\"threads\":" + std::to_string(num_threads_) +
                       ",\"batches\":" + std::to_string(p.num_batches) + "}");
  }
  if (pool_ != nullptr && p.remaining > 0) {
    auto job = [&](int worker_id) {
      WorkerLoop(p, stream, options, worker_id);
    };
    pool_->Begin(job);
    job(num_threads_ - 1);  // The caller works too, as the last worker id.
    pool_->Wait();
  } else if (p.remaining > 0) {
    WorkerLoop(p, stream, options, 0);
  }
  result.elapsed_seconds =
      std::chrono::duration<double>(Clock::now() - run_start).count();

  for (const std::vector<NodeStats>& per_worker : p.worker_stats) {
    for (size_t i = 0; i < n; ++i) result.node_stats[i].Merge(per_worker[i]);
  }
  EndRun(jqp_, runtimes_, options, &p.sinks, &result);
  result.parallel.threads = num_threads_;
  result.parallel.batches = static_cast<uint64_t>(p.num_batches);
  result.parallel.node_activations = p.activations;
  result.parallel.worker_parks = p.parks;
  result.parallel.handoffs = p.handoffs;
  result.parallel.max_ready_depth = p.max_ready_depth;
  result.parallel.max_pipe_depth = p.max_pipe_depth;
  result.parallel.pool_epochs = pool_ != nullptr ? pool_->epochs() : 0;
  result.parallel.backpressure_stalls = p.backpressure_stalls;
  if (options.metrics != nullptr) {
    for (const auto& shard : p.worker_shards) {
      options.metrics->MergeFrom(*shard);
    }
  }
  ExportRunMetrics(result, options.metrics);
  return result;
}

}  // namespace motto
