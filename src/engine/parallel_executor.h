#ifndef MOTTO_ENGINE_PARALLEL_EXECUTOR_H_
#define MOTTO_ENGINE_PARALLEL_EXECUTOR_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "engine/executor.h"
#include "engine/graph.h"
#include "engine/runtime.h"
#include "engine/worker_pool.h"
#include "event/stream.h"

namespace motto {

/// Multi-threaded JQP executor (paper §VII-C, Fig 14b): a persistent worker
/// pool driving a pipelined dataflow over raw-stream batches.
///
/// The stream is split into `batch_size` batches. Each node processes
/// batches strictly in order, and every (node, batch) activation is driven
/// by exactly one worker at a time, so per-node behaviour — and hence the
/// emitted match set, including per-sink emission order — is identical to
/// the single-threaded Executor; only inter-node scheduling changes.
///
/// Unlike a level-barrier design, batches overlap across the dataflow: a
/// node's outputs are published into a bounded per-node output ring
/// (`pipe_depth` batches), and a downstream node can consume batch k while
/// its upstream is already matching batch k+1. A node is runnable when its
/// next batch is available from every upstream ring and its own ring has a
/// free slot (backpressure); runnable nodes are dispatched to the pool
/// through a shared ready queue.
///
/// The pool is created once in Create and parked between runs: Run() spawns
/// zero threads. Per-node counters accumulate into per-worker NodeStats
/// arrays merged at run end, so workers share no hot counters; scheduler
/// behaviour is surfaced through RunResult::parallel.
class ParallelExecutor {
 public:
  /// `num_threads` is the total worker count including the caller's thread
  /// (so num_threads - 1 pool threads are spawned here). `pipe_depth` is the
  /// per-node output-ring capacity in batches; 1 degenerates to lock-step
  /// levels, larger values buy pipeline slack at proportional buffering.
  static Result<ParallelExecutor> Create(Jqp jqp, int num_threads,
                                         size_t batch_size = 512,
                                         size_t pipe_depth = 4);

  ParallelExecutor(ParallelExecutor&&);
  ParallelExecutor& operator=(ParallelExecutor&&);
  ~ParallelExecutor();

  Result<RunResult> Run(const EventStream& stream,
                        const ExecutorOptions& options = ExecutorOptions{});

  const Jqp& jqp() const { return jqp_; }
  int num_threads() const { return num_threads_; }
  size_t batch_size() const { return batch_size_; }
  size_t pipe_depth() const { return pipe_depth_; }

 private:
  struct Pipeline;  // Scheduler + per-node pipeline state (defined in .cc).

  ParallelExecutor(Jqp jqp, int num_threads, size_t batch_size,
                   size_t pipe_depth);

  /// True when `idx` can run its next batch: not already queued/running,
  /// every upstream has produced that batch, and (for nodes with consumers)
  /// its output ring has a free slot. Caller holds the scheduler lock.
  bool NodeReady(const Pipeline& p, int32_t idx) const;

  /// True when `idx` is held back from the ready queue *solely* by a full
  /// output ring (its inputs are available and batches remain). Only called
  /// on instrumented runs to attribute stalls; caller holds the scheduler
  /// lock.
  bool BackpressureOnly(const Pipeline& p, int32_t idx) const;

  /// Runs node `idx` over `batch` (merge inputs, drive the runtime, append
  /// sink output, publish to the output ring). Lock-free data plane: only
  /// one worker owns a node's activation at a time.
  void ProcessActivation(Pipeline& p, const EventStream& stream,
                         const ExecutorOptions& options, int32_t idx,
                         int64_t batch, int worker_id);

  /// Scheduler loop each worker runs for the duration of one Run() epoch.
  void WorkerLoop(Pipeline& p, const EventStream& stream,
                  const ExecutorOptions& options, int worker_id);

  Jqp jqp_;
  int num_threads_ = 1;
  size_t batch_size_ = 512;
  size_t pipe_depth_ = 4;
  PlanRouting routing_;
  std::vector<std::unique_ptr<NodeRuntime>> runtimes_;
  /// Raw event types each node must see, as a dense per-node bitmap indexed
  /// by type id (the transpose of routing_.raw_readers); empty bitmap =
  /// reads no raw events.
  std::vector<std::vector<bool>> raw_types_;
  /// Persistent pool of num_threads - 1 parked workers; null for 1 thread.
  std::unique_ptr<WorkerPool> pool_;
  /// Scheduler state + per-node rings and scratch, reused across Run calls.
  std::unique_ptr<Pipeline> pipeline_;
};

}  // namespace motto

#endif  // MOTTO_ENGINE_PARALLEL_EXECUTOR_H_
