#include "verify/churn_differ.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/rng.h"
#include "engine/executor.h"
#include "engine/sharded_executor.h"
#include "event/event.h"
#include "motto/optimizer.h"

namespace motto::verify {
namespace {

/// Stream slice a query compiled from scratch must see: every event whose
/// timestamp falls in the query's live window [ta, tr).
EventStream LiveSlice(const EventStream& stream, Timestamp ta, Timestamp tr) {
  auto lo = ta == kAlwaysLive
                ? stream.begin()
                : std::partition_point(
                      stream.begin(), stream.end(),
                      [ta](const Event& e) { return e.begin() < ta; });
  auto hi = tr == kNeverRemoved
                ? stream.end()
                : std::partition_point(
                      lo, stream.end(),
                      [tr](const Event& e) { return e.begin() < tr; });
  return EventStream(lo, hi);
}

/// The matches of `query` in `run` that a live run could have emitted
/// before the query's removal at `tr`: a negation-deferred root seals a
/// match at begin + window, so anything sealed at or after tr is dropped;
/// immediate roots seal on completion, which the slice already bounds.
MatchSet SealedMatches(const RunResult& run, const Query& query,
                       Timestamp tr) {
  MatchSet set;
  auto it = run.sink_events.find(query.name);
  if (it == run.sink_events.end()) return set;
  const bool deferred = !query.pattern.negated().empty();
  for (const Event& e : it->second) {
    if (tr != kNeverRemoved && deferred && e.begin() + query.window >= tr) {
      continue;
    }
    set.insert(e.Fingerprint());
  }
  return set;
}

}  // namespace

Result<CaseReport> CheckChurnCase(const std::vector<Query>& initial,
                                  const ChurnScript& script,
                                  const EventStream& stream,
                                  EventTypeRegistry* registry,
                                  const ChurnDifferOptions& options) {
  CaseReport report;
  StreamStats stats = ComputeStats(stream);

  // User queries ever live in this case, with their live windows.
  std::map<std::string, Query> queries;
  std::map<std::string, std::pair<Timestamp, Timestamp>> windows;
  for (const Query& query : initial) {
    queries[query.name] = query;
    windows[query.name] = {kAlwaysLive, kNeverRemoved};
  }
  for (const ChurnCommand& cmd : script.commands) {
    if (cmd.add) {
      queries[cmd.name] = cmd.query;
      windows[cmd.name] = {cmd.ts, kNeverRemoved};
    } else {
      auto it = windows.find(cmd.name);
      if (it == windows.end()) {
        return InvalidArgumentError("script removes unknown query '" +
                                    cmd.name + "'");
      }
      it->second.second = cmd.ts;
    }
  }

  // From-scratch oracle: each query alone (NA plan) over its live slice,
  // through the single-threaded executor, cross-checked by the sharded one.
  std::map<std::string, MatchSet> oracle;
  for (const auto& [name, query] : queries) {
    const auto [ta, tr] = windows[name];
    EventStream slice = LiveSlice(stream, ta, tr);
    OptimizerOptions na;
    na.mode = OptimizerMode::kNa;
    Optimizer optimizer(registry, stats, na);
    MOTTO_ASSIGN_OR_RETURN(OptimizeOutcome outcome,
                           optimizer.Optimize({query}));
    Jqp sharded_jqp = outcome.jqp;
    MOTTO_ASSIGN_OR_RETURN(Executor executor,
                           Executor::Create(std::move(outcome.jqp)));
    MOTTO_ASSIGN_OR_RETURN(RunResult run, executor.Run(slice));
    MOTTO_ASSIGN_OR_RETURN(
        ShardedExecutor sharded,
        ShardedExecutor::Create(std::move(sharded_jqp), /*num_shards=*/5,
                                /*num_threads=*/2));
    MOTTO_ASSIGN_OR_RETURN(RunResult sharded_run, sharded.Run(slice));
    oracle[name] = SealedMatches(run, query, tr);
    report.Diff("oracle-sharded", name, oracle[name],
                SealedMatches(sharded_run, query, tr));
  }

  // The live churn path, in both evaluation-order modes.
  OptimizerOptions churn_options;
  churn_options.mode = OptimizerMode::kMotto;
  churn_options.planner.seed = options.seed;
  churn_options.planner.exact_budget_seconds = 0.5;
  churn_options.planner.sa_iterations = 600;
  for (EvalOrderMode mode :
       {EvalOrderMode::kArrival, EvalOrderMode::kSelectivity}) {
    ChurnRunOptions run_options;
    run_options.executor.eval_order = mode;
    MOTTO_ASSIGN_OR_RETURN(ChurnOutcome outcome,
                           RunChurn(initial, script, stream, registry,
                                    churn_options, run_options));
    const char* path = mode == EvalOrderMode::kArrival ? "churn-arrival"
                                                       : "churn-lazy";
    std::map<std::string, MatchSet> live = SinkMatches(outcome.result);
    for (const auto& [name, query] : queries) {
      report.Diff(path, name, oracle[name], live[name]);
    }
  }
  return report;
}

Result<DiffOutcome> RunChurnDiffer(const ChurnDifferOptions& options) {
  auto derive = [&options](uint64_t case_seed, int, QueryFuzzer* fuzzer,
                           DiffCase* c) {
    const EventStream& stream = c->stream;
    if (stream.size() < 8 || stream.back().begin() <= stream.front().begin()) {
      return false;
    }
    // A deterministic script spanning the stream: all adds first (fresh
    // names "c<i>"), then removals of both initial and added queries, each
    // command at its own interior boundary.
    std::vector<Query> added;
    for (int i = 0; i < options.added_queries; ++i) {
      added.push_back(fuzzer->NextQuery("c" + std::to_string(i)));
    }
    std::vector<std::string> removable;
    for (size_t i = 0; i < std::max(c->queries.size(), added.size()); ++i) {
      if (i < added.size()) removable.push_back(added[i].name);
      if (i < c->queries.size()) removable.push_back(c->queries[i].name);
    }
    Rng rng(case_seed * 0x9e3779b97f4a7c15ull + 1);
    rng.Shuffle(removable);
    const size_t removals = std::min(removable.size(),
                                     static_cast<size_t>(std::max(
                                         0, options.removals)));
    const size_t total = added.size() + removals;
    if (total == 0) return false;
    const Timestamp lo = stream.front().begin();
    const Timestamp hi = stream.back().begin();
    auto boundary = [&](size_t j) {
      return lo + 1 +
             static_cast<Timestamp>((static_cast<int64_t>(hi - lo) *
                                     static_cast<int64_t>(j + 1)) /
                                    static_cast<int64_t>(total + 1));
    };
    for (const Query& query : added) {
      c->script.commands.push_back(
          {boundary(c->script.commands.size()), true, query.name, query});
    }
    for (size_t r = 0; r < removals; ++r) {
      c->script.commands.push_back(
          {boundary(c->script.commands.size()), false, removable[r], {}});
    }
    return true;
  };
  return RunCases(
      options.seed, options.iterations, options.fuzz, derive,
      [&options](const DiffCase& c, EventTypeRegistry* registry) {
        return CheckChurnCase(c.queries, c.script, c.stream, registry,
                              options);
      });
}

}  // namespace motto::verify
