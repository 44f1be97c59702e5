#include "engine/sharded_executor.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <utility>

#include "obs/trace.h"

namespace motto {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr Timestamp kTsMin = std::numeric_limits<Timestamp>::min();
constexpr Timestamp kTsMax = std::numeric_limits<Timestamp>::max();

}  // namespace

ShardedExecutor::ShardedExecutor(Jqp jqp, PartitionPlan plan, int num_threads)
    : jqp_(std::move(jqp)), plan_(std::move(plan)), num_threads_(num_threads) {}

Result<ShardedExecutor> ShardedExecutor::Create(Jqp jqp, int num_shards,
                                                int num_threads) {
  if (num_shards < 1) {
    return InvalidArgumentError("num_shards must be >= 1, got " +
                                std::to_string(num_shards));
  }
  MOTTO_RETURN_IF_ERROR(jqp.Validate());
  PartitionPlan plan = PartitionPlan::Build(jqp, num_shards);
  int threads = num_threads <= 0 ? static_cast<int>(plan.shards.size())
                                 : num_threads;
  threads = std::max(1, std::min(threads,
                                 std::max(1, static_cast<int>(
                                                 plan.shards.size()))));
  ShardedExecutor sharded(std::move(jqp), std::move(plan), threads);

  for (const ShardSpec& spec : sharded.plan_.shards) {
    // The shard's sub-plan: the union of its components' nodes, re-indexed.
    // Node ids stay ascending, so relative order (and with it the replica's
    // round structure) matches the full plan's.
    std::vector<int32_t> global_nodes;
    for (int32_t c : spec.components) {
      const PartitionComponent& comp =
          sharded.plan_.components[static_cast<size_t>(c)];
      global_nodes.insert(global_nodes.end(), comp.nodes.begin(),
                          comp.nodes.end());
    }
    std::sort(global_nodes.begin(), global_nodes.end());
    std::vector<int32_t> local_of(sharded.jqp_.nodes.size(), -1);
    Jqp sub;
    for (size_t li = 0; li < global_nodes.size(); ++li) {
      int32_t gi = global_nodes[li];
      local_of[static_cast<size_t>(gi)] = static_cast<int32_t>(li);
      JqpNode node = sharded.jqp_.nodes[static_cast<size_t>(gi)];
      for (int32_t& input : node.inputs) {
        input = local_of[static_cast<size_t>(input)];
      }
      sub.nodes.push_back(std::move(node));
    }
    for (int32_t c : spec.components) {
      const PartitionComponent& comp =
          sharded.plan_.components[static_cast<size_t>(c)];
      for (int32_t s : comp.sinks) {
        const Jqp::Sink& sink = sharded.jqp_.sinks[static_cast<size_t>(s)];
        sub.sinks.push_back(Jqp::Sink{
            sink.query_name, local_of[static_cast<size_t>(sink.node)]});
      }
    }
    MOTTO_ASSIGN_OR_RETURN(Executor replica, Executor::Create(std::move(sub)));
    Shard shard{std::move(replica)};
    shard.group = spec.group;
    shard.time_slices = spec.time_slices;
    shard.slice_index = spec.slice_index;
    shard.horizon = spec.horizon;
    shard.global_nodes = std::move(global_nodes);
    sharded.shards_.push_back(std::move(shard));
  }

  if (threads > 1) {
    sharded.pool_ = std::make_unique<WorkerPool>(threads - 1);
  }
  return sharded;
}

void ShardedExecutor::RunShard(Shard* shard, const ExecutorOptions& options) {
  if (shard->count == 0 && shard->slice_index + 1 < shard->time_slices) {
    // Empty non-final slice: owns an empty timestamp interval, nothing to
    // do. (An empty *final* slice still replays its warm-up context: the
    // final flush may owe it deferred-negation matches keyed past the last
    // owned event.)
    shard->result = RunResult{};
    shard->busy_seconds = 0.0;
    return;
  }
  obs::TraceSink* trace = options.trace;
  double span_start = trace != nullptr ? trace->NowMicros() : 0.0;
  Clock::time_point start = Clock::now();
  ExecutorOptions inner;
  inner.collect_node_timing = options.collect_node_timing;
  inner.count_matches_only = options.count_matches_only;
  inner.eval_order = options.eval_order;
  // Metrics and trace stay off inside the replica: its node ids are local
  // to the sub-plan and would collide across shards. The merged result is
  // exported once, with global ids, by Run().
  shard->result = shard->executor.RunSpan(shard->data, shard->count, inner);
  shard->busy_seconds = SecondsSince(start);
  if (trace != nullptr) {
    double span_end = trace->NowMicros();
    trace->Span("shard", "shard",
                static_cast<int64_t>(shard - shards_.data()), span_start,
                span_end - span_start);
  }
}

Result<RunResult> ShardedExecutor::Run(const EventStream& stream,
                                       const ExecutorOptions& options) {
  MOTTO_RETURN_IF_ERROR(ValidateStream(stream));
  Clock::time_point run_start = Clock::now();
  size_t stream_size = stream.size();

  // Slice the time axis per replicated group: cuts at equal event counts,
  // nudged forward so tied timestamps never straddle a boundary (ownership
  // intervals are in timestamp space; a split tie would leave a negated
  // event outside the slice that needs it for a kill).
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    if (shard.time_slices == 1) {
      shard.data = stream.data();
      shard.count = stream_size;
      shard.owned_events = stream_size;
      shard.context_events = 0;
      continue;
    }
    size_t n = static_cast<size_t>(shard.time_slices);
    size_t k = static_cast<size_t>(shard.slice_index);
    auto cut = [&](size_t j) -> size_t {
      if (j == 0) return 0;
      if (j >= n) return stream_size;
      size_t c = stream_size * j / n;
      while (c > 0 && c < stream_size &&
             stream[c].begin() == stream[c - 1].begin()) {
        ++c;
      }
      return c;
    };
    size_t lo_owned = cut(k);
    size_t hi = cut(k + 1);
    if (hi < lo_owned) hi = lo_owned;  // Ties swallowed the whole slice.
    Timestamp prev_last = lo_owned > 0 ? stream[lo_owned - 1].begin() : kTsMin;
    bool final_slice = k + 1 == n;
    Timestamp own_last =
        final_slice ? kTsMax
                    : (hi > lo_owned ? stream[hi - 1].begin() : prev_last);
    size_t lo = lo_owned;
    if (lo_owned > 0) {
      Timestamp ctx_from = prev_last;
      if (ctx_from > kTsMin + shard.horizon) {
        ctx_from -= shard.horizon;
      } else {
        ctx_from = kTsMin;
      }
      lo = static_cast<size_t>(
          std::lower_bound(stream.begin(),
                           stream.begin() + static_cast<ptrdiff_t>(lo_owned),
                           ctx_from,
                           [](const Event& e, Timestamp t) {
                             return e.begin() < t;
                           }) -
          stream.begin());
    }
    shard.data = stream.data() + lo;
    shard.count = hi - lo;
    shard.owned_events = hi - lo_owned;
    shard.context_events = lo_owned - lo;
    SinkOwnership slice;
    slice.min_exclusive = prev_last;
    slice.max_inclusive = own_last;
    shard.executor.SetSinkOwnership(std::vector<SinkOwnership>(
        shard.executor.jqp().sinks.size(), slice));
    if (own_last <= prev_last && !final_slice) shard.count = 0;
  }

  obs::TraceSink* trace = options.trace;
  if (trace != nullptr) {
    for (size_t s = 0; s < shards_.size(); ++s) {
      const Shard& shard = shards_[s];
      std::string name = "shard";
      name += std::to_string(s);
      name += " g";
      name += std::to_string(shard.group);
      if (shard.time_slices > 1) {
        name += " ";
        name += std::to_string(shard.slice_index + 1);
        name += "/";
        name += std::to_string(shard.time_slices);
      }
      trace->NameThread(static_cast<int64_t>(s), name);
    }
  }

  int threads = std::min(num_threads_, static_cast<int>(shards_.size()));
  if (pool_ != nullptr && threads > 1) {
    auto job = [&](int worker) {
      for (size_t s = static_cast<size_t>(worker); s < shards_.size();
           s += static_cast<size_t>(threads)) {
        RunShard(&shards_[s], options);
      }
    };
    pool_->Begin(job);
    job(pool_->num_workers());
    pool_->Wait();
  } else {
    for (Shard& shard : shards_) RunShard(&shard, options);
  }

  // Deterministic merge: shards in plan order (slices of a group are
  // contiguous and in stream order; groups own disjoint sinks), sink events
  // concatenated, node stats re-mapped to global ids.
  RunResult merged;
  merged.node_stats.assign(jqp_.nodes.size(), NodeStats{});
  ShardedRunStats& sharded = merged.sharded;
  sharded.shards = static_cast<int>(shards_.size());
  sharded.threads = threads;
  sharded.groups = plan_.groups;
  double busy_total = 0.0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    RunResult& part = shard.result;
    ShardRunStats row;
    row.shard = static_cast<int>(s);
    row.group = shard.group;
    row.time_slices = shard.time_slices;
    row.slice_index = shard.slice_index;
    row.owned_events = shard.owned_events;
    row.context_events = shard.context_events;
    row.matches = part.TotalMatches();
    row.busy_seconds = shard.busy_seconds;
    busy_total += shard.busy_seconds;
    sharded.max_busy_seconds =
        std::max(sharded.max_busy_seconds, shard.busy_seconds);
    sharded.per_shard.push_back(row);
    MergeRunResult(std::move(part), shard.global_nodes, &merged);
    part = RunResult{};  // Release per-shard buffers promptly.
  }
  // Replicas replay overlapping spans: the run covers the stream once.
  merged.raw_events = stream_size;
  if (!shards_.empty()) {
    sharded.mean_busy_seconds = busy_total / static_cast<double>(
                                                 shards_.size());
  }
  if (sharded.mean_busy_seconds > 0.0) {
    sharded.skew = sharded.max_busy_seconds / sharded.mean_busy_seconds;
  }
  merged.elapsed_seconds = SecondsSince(run_start);
  if (options.trace != nullptr) {
    // Shards share one sink, so overwrite (never add) to avoid
    // double-counting drops already folded into per-shard results.
    merged.trace_dropped_spans = options.trace->dropped_events();
  }
  ExportRunMetrics(merged, options.metrics);
  return merged;
}

}  // namespace motto
