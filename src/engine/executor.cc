#include "engine/executor.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <string>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace motto {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A sink's emission is deferred behind its negation window only for
/// non-DISJ pattern nodes with negated types: DISJ forwards operands
/// immediately and filters are stateless, so everything else emits at the
/// watermark that completes the match.
Duration SinkDeferredWindow(const JqpNode& node) {
  const auto* pattern = std::get_if<PatternSpec>(&node.spec);
  if (pattern == nullptr || pattern->negated.empty() ||
      pattern->op == PatternOp::kDisj) {
    return -1;
  }
  return pattern->window;
}

}  // namespace

uint64_t RunResult::TotalMatches() const {
  uint64_t total = 0;
  for (const auto& [name, count] : sink_counts) total += count;
  return total;
}

void ExportRunMetrics(const RunResult& result,
                      obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  for (size_t i = 0; i < result.node_stats.size(); ++i) {
    const NodeStats& stats = result.node_stats[i];
    std::string prefix = "node." + std::to_string(i);
    registry->GetCounter(prefix + ".events_in")->Add(stats.events_in);
    registry->GetCounter(prefix + ".events_out")->Add(stats.events_out);
    registry->GetGauge(prefix + ".busy_seconds")->Set(stats.busy_seconds);
    if (stats.arena_chunk_allocs + stats.arena_chunk_reuses +
            stats.arena_live_high_water >
        0) {
      registry->GetCounter(prefix + ".arena_chunk_allocs")
          ->Add(stats.arena_chunk_allocs);
      registry->GetCounter(prefix + ".arena_chunk_reuses")
          ->Add(stats.arena_chunk_reuses);
      registry->GetGauge(prefix + ".arena_live_high_water")
          ->Set(static_cast<double>(stats.arena_live_high_water));
      registry->GetGauge(prefix + ".arena_slab_high_water")
          ->Set(static_cast<double>(stats.arena_slab_high_water));
    }
  }
  registry->GetCounter("run.raw_events")->Add(result.raw_events);
  registry->GetCounter("run.matches")->Add(result.TotalMatches());
  registry->GetGauge("run.elapsed_seconds")->Set(result.elapsed_seconds);
  if (result.trace_dropped_spans > 0) {
    registry->GetCounter("trace.dropped_spans")
        ->Add(result.trace_dropped_spans);
  }
  const ShardedRunStats& sharded = result.sharded;
  if (sharded.shards > 0) {
    registry->GetGauge("shard.count")
        ->Set(static_cast<double>(sharded.shards));
    registry->GetGauge("shard.threads")
        ->Set(static_cast<double>(sharded.threads));
    registry->GetGauge("shard.groups")
        ->Set(static_cast<double>(sharded.groups));
    registry->GetGauge("shard.skew")->Set(sharded.skew);
    registry->GetGauge("shard.max_busy_seconds")
        ->Set(sharded.max_busy_seconds);
    registry->GetGauge("shard.mean_busy_seconds")
        ->Set(sharded.mean_busy_seconds);
    for (const ShardRunStats& shard : sharded.per_shard) {
      std::string prefix = "shard." + std::to_string(shard.shard);
      registry->GetCounter(prefix + ".owned_events")->Add(shard.owned_events);
      registry->GetCounter(prefix + ".context_events")
          ->Add(shard.context_events);
      registry->GetCounter(prefix + ".matches")->Add(shard.matches);
      registry->GetGauge(prefix + ".busy_seconds")->Set(shard.busy_seconds);
    }
  }
  const ParallelRunStats& parallel = result.parallel;
  if (parallel.threads > 0) {
    registry->GetGauge("sched.threads")
        ->Set(static_cast<double>(parallel.threads));
    registry->GetCounter("sched.batches")->Add(parallel.batches);
    registry->GetCounter("sched.node_activations")
        ->Add(parallel.node_activations);
    registry->GetCounter("sched.worker_parks")->Add(parallel.worker_parks);
    registry->GetCounter("sched.handoffs")->Add(parallel.handoffs);
    registry->GetCounter("sched.backpressure_stalls")
        ->Add(parallel.backpressure_stalls);
    registry->GetGauge("sched.max_ready_depth")
        ->Set(static_cast<double>(parallel.max_ready_depth));
    registry->GetGauge("sched.max_pipe_depth")
        ->Set(static_cast<double>(parallel.max_pipe_depth));
    registry->GetGauge("sched.pool_epochs")
        ->Set(static_cast<double>(parallel.pool_epochs));
  }
}

void MergeRunResult(RunResult&& part, std::span<const int32_t> global_nodes,
                    RunResult* into) {
  into->raw_events += part.raw_events;
  into->elapsed_seconds += part.elapsed_seconds;
  for (const auto& [name, count] : part.sink_counts) {
    into->sink_counts[name] += count;
  }
  for (auto& [name, events] : part.sink_events) {
    std::vector<Event>& collected = into->sink_events[name];
    collected.insert(collected.end(), std::make_move_iterator(events.begin()),
                     std::make_move_iterator(events.end()));
  }
  for (size_t i = 0; i < part.node_stats.size() && i < global_nodes.size();
       ++i) {
    into->node_stats[static_cast<size_t>(global_nodes[i])].Merge(
        part.node_stats[i]);
  }
}

Result<PlanRouting> BuildPlanRouting(const Jqp& jqp) {
  MOTTO_RETURN_IF_ERROR(jqp.Validate());
  PlanRouting routing;
  MOTTO_ASSIGN_OR_RETURN(routing.topo_order, jqp.TopoOrder());
  size_t n = jqp.nodes.size();
  routing.consumers.assign(n, {});
  routing.node_sinks.assign(n, {});
  for (size_t i = 0; i < n; ++i) {
    const int32_t id = static_cast<int32_t>(i);
    for (int32_t input : jqp.nodes[i].inputs) {
      routing.consumers[static_cast<size_t>(input)].push_back(id);
    }
    const auto* pattern = std::get_if<PatternSpec>(&jqp.nodes[i].spec);
    if (pattern == nullptr) continue;
    auto reads = [&](EventTypeId t) {
      size_t type = static_cast<size_t>(t);
      if (type >= routing.raw_readers.size()) {
        routing.raw_readers.resize(type + 1);
      }
      // Nodes arrive in ascending order, so a node reading one type through
      // two operands is already last in the list.
      std::vector<int32_t>& readers = routing.raw_readers[type];
      if (readers.empty() || readers.back() != id) readers.push_back(id);
    };
    for (const OperandBinding& binding : pattern->operands) {
      if (binding.channel != kRawChannel) continue;
      for (EventTypeId t : binding.types) reads(t);
    }
    for (EventTypeId t : pattern->negated) reads(t);
  }
  for (size_t s = 0; s < jqp.sinks.size(); ++s) {
    routing.node_sinks[static_cast<size_t>(jqp.sinks[s].node)].push_back(s);
  }
  routing.movable.assign(n, false);
  for (size_t i = 0; i < n; ++i) {
    routing.movable[i] =
        routing.node_sinks[i].size() == 1 && routing.consumers[i].empty();
  }
  return routing;
}

void SinkOutputs::Collect(size_t sink, std::vector<Event>& out, bool movable,
                          const SinkOwnership* rule) {
  SinkTelemetry& st = telemetry[sink];
  std::vector<Event>* kept = events.empty() ? nullptr : &events[sink];
  if (rule == nullptr || rule->OwnsAll()) {
    st.matches += out.size();
    for (const Event& ev : out) {
      st.last_emit_ts = std::max(st.last_emit_ts, ev.end());
    }
    if (kept == nullptr) return;
    if (movable) {
      kept->insert(kept->end(), std::make_move_iterator(out.begin()),
                   std::make_move_iterator(out.end()));
    } else {
      kept->insert(kept->end(), out.begin(), out.end());
    }
    return;
  }
  for (Event& ev : out) {
    if (!rule->Owns(ev)) continue;
    ++st.matches;
    st.last_emit_ts = std::max(st.last_emit_ts, ev.end());
    if (kept == nullptr) continue;
    if (movable) {
      kept->push_back(std::move(ev));
    } else {
      kept->push_back(ev);
    }
  }
}

RunResult StartRun(const Jqp& jqp,
                   const std::vector<std::unique_ptr<NodeRuntime>>& runtimes,
                   const ExecutorOptions& options, const char* last_row,
                   SinkOutputs* sinks) {
  size_t n = jqp.nodes.size();
  // (Re-)attach node probes every run: with a registry when metrics are on,
  // with nullptr otherwise so no runtime holds instruments of a past run's
  // registry.
  for (size_t i = 0; i < n; ++i) {
    runtimes[i]->Reset();
    runtimes[i]->AttachProbe(options.metrics, "node." + std::to_string(i));
    runtimes[i]->SetEvalMode(options.eval_order);
  }
  if (options.trace != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      options.trace->NameThread(static_cast<int64_t>(i),
                                jqp.NodeLabel(static_cast<int32_t>(i)));
    }
    options.trace->NameThread(static_cast<int64_t>(n), last_row);
  }
  sinks->telemetry.assign(jqp.sinks.size(), SinkTelemetry{});
  sinks->events.assign(options.count_matches_only ? 0 : jqp.sinks.size(), {});
  RunResult result;
  result.node_stats.assign(n, NodeStats{});
  // The map entries are made before any match is stored, EndRun only fills
  // them: made after the match buffers, they raised peak RSS over repeated
  // runs (DESIGN.md §8).
  for (const Jqp::Sink& sink : jqp.sinks) {
    result.sink_counts.emplace(sink.query_name, 0);
    if (!options.count_matches_only) {
      result.sink_events.try_emplace(sink.query_name);
    }
  }
  return result;
}

void EndRun(const Jqp& jqp,
            const std::vector<std::unique_ptr<NodeRuntime>>& runtimes,
            const ExecutorOptions& options, SinkOutputs* sinks,
            RunResult* result) {
  for (size_t s = 0; s < jqp.sinks.size(); ++s) {
    const std::string& name = jqp.sinks[s].query_name;
    result->sink_counts[name] = sinks->telemetry[s].matches;
    if (!sinks->events.empty()) {
      result->sink_events[name] = std::move(sinks->events[s]);
    }
  }
  for (size_t i = 0; i < runtimes.size(); ++i) {
    runtimes[i]->CollectStats(&result->node_stats[i]);
  }
  if (options.trace != nullptr) {
    // The sink's count is cumulative and shared by all of a run's workers:
    // overwrite, never add.
    result->trace_dropped_spans = options.trace->dropped_events();
  }
}

Executor::Executor(Jqp jqp) : jqp_(std::move(jqp)) {}

Result<Executor> Executor::Create(Jqp jqp) {
  MOTTO_ASSIGN_OR_RETURN(PlanRouting routing, BuildPlanRouting(jqp));
  Executor executor(std::move(jqp));
  executor.routing_ = std::move(routing);
  for (const JqpNode& node : executor.jqp_.nodes) {
    executor.runtimes_.push_back(MakeNodeRuntime(node.spec));
  }
  return executor;
}

Result<RunResult> Executor::Run(const EventStream& stream,
                                const ExecutorOptions& options) {
  MOTTO_RETURN_IF_ERROR(ValidateStream(stream));
  return RunSpan(stream.data(), stream.size(), options);
}

RunResult Executor::RunSpan(const Event* events, size_t count,
                            const ExecutorOptions& options) {
  BeginSession(options);
  FeedSession(events, count);
  return FinishSession();
}

void Executor::SetSinkOwnership(std::vector<SinkOwnership> rules) {
  MOTTO_CHECK(rules.empty() || rules.size() == jqp_.sinks.size())
      << "sink ownership rules must parallel Jqp::sinks";
  for (size_t s = 0; s < rules.size(); ++s) {
    rules[s].deferred_window = SinkDeferredWindow(
        jqp_.nodes[static_cast<size_t>(jqp_.sinks[s].node)]);
  }
  ownership_ = std::move(rules);
}

void Executor::BeginSession(const ExecutorOptions& options) {
  session_options_ = options;
  session_seq_ = 0;
  session_active_ = true;
  session_result_ = StartRun(jqp_, runtimes_, options, "stream", &sinks_);

  // Round-local state lives in member scratch: buffers keep their capacity
  // across rounds and across Run() calls, so the steady state reuses
  // storage instead of reallocating per round.
  size_t n = jqp_.nodes.size();
  buffers_.resize(n);
  for (auto& buffer : buffers_) buffer.clear();
  raw_stamp_.assign(n, 0);
  active_stamp_.assign(n, 0);
}

// Only nodes touched this round run: nodes routed the raw event, nodes
// whose upstream emitted, and (on a flush) everyone. Skipping idle nodes is
// safe: watermark advancement only matters when a node processes input or
// flushes deferred negation matches, and the latter is driven by
// negated-type arrivals (routed) or an explicit flush round.
void Executor::ProcessRound(const Event* raw, Timestamp watermark,
                            bool activate_all) {
  size_t n = jqp_.nodes.size();
  const ExecutorOptions& options = session_options_;
  obs::TraceSink* trace = options.trace;
  RunResult& result = session_result_;
  const uint64_t seq = session_seq_;
  if (activate_all) {
    for (size_t i = 0; i < n; ++i) active_stamp_[i] = seq;
  }
  bool any_sink_output = false;
  for (int32_t idx : routing_.topo_order) {
    size_t ui = static_cast<size_t>(idx);
    if (active_stamp_[ui] != seq) continue;
    NodeRuntime& runtime = *runtimes_[ui];
    const JqpNode& node = jqp_.nodes[ui];
    std::vector<Event>& out = buffers_[ui];
    out.clear();
    // When tracing, the span's begin/end double as the busy-time clock
    // reads so the traced and untraced timing paths cost the same.
    double span_start = 0.0;
    Clock::time_point node_start;
    if (trace != nullptr) {
      span_start = trace->NowMicros();
    } else if (options.collect_node_timing) {
      node_start = Clock::now();
    }
    runtime.OnWatermark(watermark, &out);
    if (raw != nullptr && raw_stamp_[ui] == seq) {
      runtime.OnEvent(kRawChannel, *raw, &out);
      ++result.node_stats[ui].events_in;
    }
    for (size_t c = 0; c < node.inputs.size(); ++c) {
      size_t input = static_cast<size_t>(node.inputs[c]);
      if (active_stamp_[input] != seq) continue;
      const std::vector<Event>& upstream = buffers_[input];
      Channel channel = static_cast<Channel>(c + 1);
      for (const Event& ev : upstream) {
        runtime.OnEvent(channel, ev, &out);
      }
      result.node_stats[ui].events_in += upstream.size();
    }
    if (trace != nullptr) {
      double span_end = trace->NowMicros();
      trace->Span("round", "node", static_cast<int64_t>(ui), span_start,
                  span_end - span_start);
      result.node_stats[ui].busy_seconds += (span_end - span_start) * 1e-6;
    } else if (options.collect_node_timing) {
      result.node_stats[ui].busy_seconds += SecondsSince(node_start);
    }
    if (!out.empty()) {
      result.node_stats[ui].events_out += out.size();
      any_sink_output = true;
      for (int32_t consumer : routing_.consumers[ui]) {
        active_stamp_[static_cast<size_t>(consumer)] = seq;
      }
    }
  }
  // Sinks are collected after the walk, not as each node finishes: inline
  // collection raised serve's peak RSS (DESIGN.md §8).
  if (!any_sink_output) return;
  for (size_t s = 0; s < jqp_.sinks.size(); ++s) {
    size_t node = static_cast<size_t>(jqp_.sinks[s].node);
    if (active_stamp_[node] != seq || buffers_[node].empty()) continue;
    sinks_.Collect(s, buffers_[node], routing_.movable[node],
                   ownership_.empty() ? nullptr : &ownership_[s]);
  }
}

void Executor::FeedSession(const Event* events, size_t count) {
  MOTTO_CHECK(session_active_) << "FeedSession without BeginSession";
  obs::TraceSink* trace = session_options_.trace;
  const int64_t stream_tid = static_cast<int64_t>(jqp_.nodes.size());
  session_result_.raw_events += count;
  Clock::time_point feed_start = Clock::now();
  for (size_t pos = 0; pos < count; ++pos) {
    const Event& raw = events[pos];
    ++session_seq_;
    if (trace != nullptr && (session_seq_ & 511) == 1) {
      // Sampled watermark ticks anchor stream time to wall time on the
      // trace's "stream" row without drowning the view in instants.
      trace->Instant("watermark", stream_tid, trace->NowMicros(),
                     "{\"ts_us\":" + std::to_string(raw.begin()) + "}");
    }
    bool routed = false;
    size_t type = static_cast<size_t>(raw.type());
    if (type < routing_.raw_readers.size()) {
      for (int32_t idx : routing_.raw_readers[type]) {
        raw_stamp_[static_cast<size_t>(idx)] = session_seq_;
        active_stamp_[static_cast<size_t>(idx)] = session_seq_;
        routed = true;
      }
    }
    // No node reads this type: the round would activate nothing (deferred
    // negation flushes are driven by negated-type arrivals, which route),
    // so skip the topo scan entirely. Sub-plan shards see mostly foreign
    // types, which makes this the sharded path's fast lane.
    if (!routed) continue;
    ProcessRound(&raw, raw.begin(), /*activate_all=*/false);
  }
  session_result_.elapsed_seconds += SecondsSince(feed_start);
}

void Executor::FlushSessionAt(Timestamp watermark) {
  MOTTO_CHECK(session_active_) << "FlushSessionAt without BeginSession";
  Clock::time_point start = Clock::now();
  ++session_seq_;
  ProcessRound(nullptr, watermark, /*activate_all=*/true);
  session_result_.elapsed_seconds += SecondsSince(start);
}

std::unordered_map<std::string, std::vector<Event>>
Executor::DrainSessionOutput() {
  MOTTO_CHECK(session_active_) << "DrainSessionOutput without BeginSession";
  std::unordered_map<std::string, std::vector<Event>> drained;
  for (size_t s = 0; s < sinks_.events.size(); ++s) {
    drained.emplace(jqp_.sinks[s].query_name,
                    std::exchange(sinks_.events[s], {}));
  }
  return drained;
}

RunResult Executor::SuspendSession() {
  MOTTO_CHECK(session_active_) << "SuspendSession without BeginSession";
  session_active_ = false;
  EndRun(jqp_, runtimes_, session_options_, &sinks_, &session_result_);
  return std::move(session_result_);
}

void Executor::SnapshotSessionNodeStats(std::vector<NodeStats>* out) const {
  *out = session_result_.node_stats;
  for (size_t i = 0; i < runtimes_.size() && i < out->size(); ++i) {
    runtimes_[i]->CollectStats(&(*out)[i]);
  }
}

RunResult Executor::FinishSession() {
  MOTTO_CHECK(session_active_) << "FinishSession without BeginSession";
  obs::TraceSink* trace = session_options_.trace;
  if (trace != nullptr) {
    trace->Instant("final_flush", static_cast<int64_t>(jqp_.nodes.size()),
                   trace->NowMicros());
  }
  // Final flush so window-expiry (NEG) emissions at the stream tail appear.
  FlushSessionAt(kFinalWatermark);
  RunResult result = SuspendSession();
  ExportRunMetrics(result, session_options_.metrics);
  return result;
}

}  // namespace motto
