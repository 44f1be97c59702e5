// The `motto run` path: LoadStreamCsv -> ComputeStats -> ParseWorkloadText
// -> Optimizer::Optimize -> Executor::Create/Run, plus ShardedExecutor.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <optional>

#include "check.h"
#include "engine/executor.h"
#include "engine/sharded_executor.h"
#include "obs/metrics.h"
#include "obs/opt_trace.h"
#include "phases.h"
#include "trace.h"
#include "workload/io.h"

namespace perfbench {

Inputs LoadInputs(const Config& config) {
  Inputs in;
  in.registry = std::make_unique<motto::EventTypeRegistry>();
  {
    ScopedSpan span("ccl.parse");
    std::string text =
        Must(ReadFile(config.dir + "/workload.ccl"), "read workload");
    in.queries = Must(motto::ParseWorkloadText(text, in.registry.get()),
                      "ParseWorkloadText");
    span.set_items(in.queries.size());
  }
  {
    ScopedSpan span("io.load_stream");
    in.stream = Must(motto::LoadStreamCsv(config.dir + "/stream.csv",
                                          in.registry.get()),
                     "LoadStreamCsv");
    span.set_items(in.stream.size());
  }
  {
    ScopedSpan span("io.stats");
    in.stats = motto::ComputeStats(in.stream);
  }
  return in;
}

std::string PlanPrint::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "nodes=%zu cost=%.6g exact=%d", nodes,
                planned_cost, exact ? 1 : 0);
  return buf;
}

PlanPrint PrintPlan(const motto::OptimizeOutcome& outcome) {
  PlanPrint print;
  print.nodes = outcome.jqp.nodes.size();
  // Rounded so that summation-order noise in the cost model is not drift.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", outcome.planned_cost);
  print.planned_cost = std::strtod(buf, nullptr);
  print.exact = outcome.exact;
  return print;
}

namespace {

/// ShardedExecutor runs 4 shards on at most half of the usable CPUs: on a
/// 4-CPU host, 4 shards on 4 threads timed bimodally while 4 on 2 repeated.
constexpr int kShards = 4;

int ShardThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
  return std::clamp(cpus / 2, 1, kShards);
}

struct Engine {
  Inputs in;
  motto::OptimizeOutcome outcome;
  std::optional<motto::Executor> executor;
};

/// One set-up: everything between "inputs on disk" and "engine ready".
struct SetupTimes {
  double total = 0.0;
  double optimize = 0.0;
};

SetupTimes SetUp(const Config& config, Engine* engine,
                 motto::obs::OptimizerProbe* probe) {
  ScopedSpan span("setup");
  const Clock::time_point start = Clock::now();
  engine->in = LoadInputs(config);
  motto::OptimizerOptions options;
  options.probe = probe;
  SetupTimes times;
  {
    ScopedSpan optimize("optimize");
    const Clock::time_point t = Clock::now();
    motto::Optimizer optimizer(engine->in.registry.get(), engine->in.stats,
                               options);
    engine->outcome =
        Must(optimizer.Optimize(engine->in.queries), "Optimizer::Optimize");
    times.optimize = SecondsSince(t);
  }
  {
    ScopedSpan create("engine.create");
    engine->executor =
        Must(motto::Executor::Create(engine->outcome.jqp), "Executor::Create");
  }
  times.total = SecondsSince(start);
  return times;
}

/// Replays the stream once and returns events per second of wall time; the
/// result (with its retained matches) is handed back to be dropped or
/// fingerprinted outside the clock.
template <typename Exec>
double TimedRun(Exec* executor, const motto::EventStream& stream,
                const motto::ExecutorOptions& options, const char* span_name,
                motto::RunResult* out) {
  *out = motto::RunResult{};  // Free the previous replay's matches first.
  ScopedSpan span(span_name);
  span.set_items(stream.size());
  const Clock::time_point start = Clock::now();
  motto::Result<motto::RunResult> run = executor->Run(stream, options);
  const double seconds = SecondsSince(start);
  *out = Must(std::move(run), span_name);
  return static_cast<double>(stream.size()) / seconds;
}

/// The plan restricted to `target` and everything upstream of it, with a
/// sink on `target`; null when node ids are not topologically ordered.
std::optional<motto::Jqp> SubPlan(const motto::Jqp& jqp, int32_t target) {
  std::vector<bool> keep(jqp.nodes.size(), false);
  std::vector<int32_t> stack = {target};
  while (!stack.empty()) {
    int32_t id = stack.back();
    stack.pop_back();
    if (keep[static_cast<size_t>(id)]) continue;
    keep[static_cast<size_t>(id)] = true;
    for (int32_t input : jqp.nodes[static_cast<size_t>(id)].inputs) {
      stack.push_back(input);
    }
  }
  motto::Jqp sub;
  std::vector<int32_t> remap(jqp.nodes.size(), -1);
  for (size_t id = 0; id < jqp.nodes.size(); ++id) {
    if (!keep[id]) continue;
    motto::JqpNode node = jqp.nodes[id];
    for (int32_t& input : node.inputs) {
      input = remap[static_cast<size_t>(input)];
      if (input < 0) return std::nullopt;
    }
    remap[id] = sub.AddNode(std::move(node));
  }
  sub.sinks.push_back({"ceiling", remap[static_cast<size_t>(target)]});
  return sub;
}

/// Per-layer engine numbers from one replay with node timing on: the
/// heaviest node's share of busy time, arena and routing counters, and the
/// heaviest node (with its upstream) replayed alone as the matcher ceiling.
void ProbeEngineLayers(const Engine& engine, motto::Executor* executor,
                       Metrics* layer) {
  const motto::EventStream& stream = engine.in.stream;
  motto::ExecutorOptions timing;
  timing.collect_node_timing = true;
  motto::RunResult run;
  TimedRun(executor, stream, timing, "engine.timing_run", &run);
  double busy_total = 0.0;
  double busy_max = 0.0;
  int32_t heaviest = 0;
  uint64_t delivered = 0;
  uint64_t high_water = 0;
  uint64_t chunk_allocs = 0;
  for (size_t i = 0; i < run.node_stats.size(); ++i) {
    const motto::NodeStats& node = run.node_stats[i];
    busy_total += node.busy_seconds;
    if (node.busy_seconds > busy_max) {
      busy_max = node.busy_seconds;
      heaviest = static_cast<int32_t>(i);
    }
    delivered += node.events_in;
    high_water = std::max(high_water, node.arena_live_high_water);
    chunk_allocs += node.arena_chunk_allocs;
  }
  (*layer)["engine.events_delivered"] = {static_cast<double>(delivered),
                                         "count"};
  (*layer)["engine.matches"] = {static_cast<double>(run.TotalMatches()),
                                "count"};
  (*layer)["engine.partials_high_water"] = {static_cast<double>(high_water),
                                            "count"};
  (*layer)["engine.arena_chunk_allocs"] = {static_cast<double>(chunk_allocs),
                                           "count"};
  (*layer)["engine.node_busy_max_share"] = {
      busy_total > 0 ? busy_max / busy_total : 0.0, "ratio"};

  std::optional<motto::Jqp> sub = SubPlan(engine.outcome.jqp, heaviest);
  if (!sub.has_value()) Die("plan node ids are not topologically ordered");
  motto::Executor alone = Must(motto::Executor::Create(*sub), "ceiling plan");
  motto::ExecutorOptions count_only;
  count_only.count_matches_only = true;
  std::vector<double> eps;
  for (int rep = 0; rep < 3; ++rep) {
    eps.push_back(TimedRun(&alone, stream, count_only, "engine.ceiling_run",
                           &run));
  }
  (*layer)["engine.matcher_ceiling_eps"] = {Median(eps), "events/s"};
  (*layer)["engine.ceiling_nodes"] = {static_cast<double>(sub->nodes.size()),
                                      "count"};
}

}  // namespace

BatchResult RunBatch(const Config& config, Metrics* layer) {
  BatchResult result;
  Engine engine;
  motto::obs::OptimizerProbe probe;
  std::vector<double> rewrite_s, solve_s, plan_s;
  for (int rep = 0; rep < config.setup_reps; ++rep) {
    engine = Engine{};  // Free the previous set-up before timing the next.
    probe = motto::obs::OptimizerProbe{};
    SetupTimes times =
        SetUp(config, &engine, config.trace ? &probe : nullptr);
    result.setup_s.push_back(times.total);
    result.plans.push_back(PrintPlan(engine.outcome));
    rewrite_s.push_back(engine.outcome.rewrite_seconds);
    solve_s.push_back(engine.outcome.plan_seconds);
    plan_s.push_back(times.optimize - engine.outcome.rewrite_seconds -
                     engine.outcome.plan_seconds);
  }
  const motto::EventStream& stream = engine.in.stream;
  motto::Executor& executor = *engine.executor;

  if (config.trace) {
    const motto::OptimizeOutcome& o = engine.outcome;
    (*layer)["motto.rewrite_s"] = {Median(rewrite_s), "s"};
    (*layer)["motto.sharing_nodes"] = {
        static_cast<double>(probe.rewriter.graph_nodes), "count"};
    (*layer)["motto.sharing_edges"] = {
        static_cast<double>(probe.rewriter.graph_edges), "count"};
    (*layer)["planner.solve_s"] = {Median(solve_s), "s"};
    (*layer)["planner.plan_s"] = {Median(plan_s), "s"};
    (*layer)["planner.exact"] = {o.exact ? 1.0 : 0.0, "bool"};
    (*layer)["planner.bnb_expansions"] = {
        static_cast<double>(probe.bnb.expansions), "count"};
    (*layer)["planner.cost_ratio"] = {
        o.default_cost > 0 ? o.planned_cost / o.default_cost : 0.0, "ratio"};
    (*layer)["planner.jqp_nodes"] = {static_cast<double>(o.jqp.nodes.size()),
                                     "count"};
  }

  // Replays alternate between Executor::Run (single-threaded, matches
  // retained as `motto run` does) and ShardedExecutor::Run (the same plan
  // and stream on ShardThreads() threads) over one window, so both medians
  // sample the same stretch of machine time. The traced run also cycles the
  // single-threaded replays through three modes, so instrument costs are
  // measured side by side: spans on, spans off, spans on plus a metrics
  // registry.
  motto::ExecutorOptions plain;
  motto::obs::MetricsRegistry registry;
  motto::ExecutorOptions with_metrics;
  with_metrics.metrics = &registry;
  std::optional<motto::ShardedExecutor> sharded;
  {
    ScopedSpan create("engine.sharded_create");
    sharded = Must(motto::ShardedExecutor::Create(engine.outcome.jqp,
                                                  kShards, ShardThreads()),
                   "ShardedExecutor::Create");
  }
  std::vector<double> untraced_eps, metrics_eps, skew, busy_max, overhead;
  {
    ScopedSpan phase("replay");
    const Clock::time_point start = Clock::now();
    const int modes = config.trace ? 3 : 1;
    for (int rep = 0; rep < 3 * modes ||
                      SecondsSince(start) < config.seconds * config.replay_share;
         ++rep) {
      motto::RunResult run;
      const int mode = rep % modes;
      Tracer* saved = g_tracer;
      if (mode == 1) g_tracer = nullptr;
      double eps = TimedRun(&executor, stream,
                            mode == 2 ? with_metrics : plain, "engine.run",
                            &run);
      g_tracer = saved;
      (mode == 0   ? result.exec_eps
       : mode == 1 ? untraced_eps
                   : metrics_eps)
          .push_back(eps);
      if (rep == 0) result.exec_print = PrintRun(run);

      eps = TimedRun(&*sharded, stream, plain, "engine.sharded_run", &run);
      result.sharded_eps.push_back(eps);
      skew.push_back(run.sharded.skew);
      busy_max.push_back(run.sharded.max_busy_seconds);
      overhead.push_back(static_cast<double>(stream.size()) / eps -
                         run.sharded.max_busy_seconds);
      if (rep == 0) result.sharded_print = PrintRun(run);
    }
  }
  if (config.trace) {
    const double exec = Median(result.exec_eps);
    (*layer)["bench.trace_overhead_frac"] = {Median(untraced_eps) / exec - 1,
                                             "ratio"};
    (*layer)["obs.metrics_overhead_frac"] = {exec / Median(metrics_eps) - 1,
                                             "ratio"};
    (*layer)["engine.shard_skew"] = {Median(skew), "ratio"};
    (*layer)["engine.shard_busy_max_s"] = {Median(busy_max), "s"};
    (*layer)["engine.shard_overhead_s"] = {Median(overhead), "s"};
    ProbeEngineLayers(engine, &executor, layer);
  }
  return result;
}

}  // namespace perfbench
