#include "verify/differ.h"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <utility>

#include "engine/parallel_executor.h"
#include "engine/sharded_executor.h"
#include "event/event.h"
#include "motto/optimizer.h"
#include "workload/io.h"

namespace motto::verify {
namespace {

using PathMatches = std::map<std::string, MatchSet>;

Result<RunResult> RunJqp(const Jqp& jqp, const EventStream& stream,
                         EvalOrderMode eval_order = EvalOrderMode::kArrival) {
  MOTTO_ASSIGN_OR_RETURN(Executor executor, Executor::Create(jqp));
  ExecutorOptions run_options;
  run_options.eval_order = eval_order;
  return executor.Run(stream, run_options);
}

Result<OptimizeOutcome> OptimizePlan(const std::vector<Query>& queries,
                                     EventTypeRegistry* registry,
                                     const StreamStats& stats,
                                     OptimizerMode mode, uint64_t seed,
                                     bool approximate) {
  OptimizerOptions opt;
  opt.mode = mode;
  opt.planner.seed = seed;
  // Fuzz workloads have a few queries: B&B finishes well inside its
  // budget, and a short anneal still explores other sharing choices.
  opt.planner.exact_budget_seconds = 2.0;
  opt.planner.sa_iterations = 600;
  opt.planner.force_approximate = approximate;
  Optimizer optimizer(registry, stats, opt);
  return optimizer.Optimize(queries);
}

/// The kill plan as an initializer of `RecoveryCaseSpec` (without the
/// scratch directory).
std::string KillPlanText(const RecoveryCaseSpec& spec) {
  static constexpr const char* kKinds[] = {"kPlain", "kTornCheckpoint",
                                           "kTornOutput", "kMidCheckpoint"};
  std::string out = "{.kills = {";
  for (size_t k = 0; k < spec.kills.size(); ++k) {
    out += std::string(k > 0 ? ",\n            " : "") +
           "{.after_events = " + std::to_string(spec.kills[k].after_events) +
           ", .kind = RecoveryKill::Kind::" +
           kKinds[static_cast<int>(spec.kills[k].kind)] + "}";
  }
  return out + "},\n .eval_order = EvalOrderMode::" +
         (spec.eval_order == EvalOrderMode::kArrival ? "kArrival"
                                                     : "kSelectivity") +
         ",\n .checkpoint_interval = " +
         std::to_string(spec.checkpoint_interval) +
         ", .shards = " + std::to_string(spec.shards) +
         ", .threads = " + std::to_string(spec.threads) +
         ",\n .frame_seed = " + std::to_string(spec.frame_seed) + "}\n";
}

/// Erases the elements of the vector `items` selects from `*c` one at a
/// time while more than `floor` remain, keeping each erasure after which
/// the case still fails. Goes back to front, so a script command is tried
/// before the earlier one it may depend on (a remove before its add).
/// Returns whether anything was erased.
template <typename Items>
bool DropEach(DiffCase* c, size_t floor, Items items,
              const std::function<bool(const DiffCase&)>& still_fails) {
  bool dropped = false;
  for (size_t i = items(*c).size(); i-- > 0 && items(*c).size() > floor;) {
    DiffCase candidate = *c;
    items(candidate).erase(items(candidate).begin() +
                           static_cast<ptrdiff_t>(i));
    if (still_fails(candidate)) {
      *c = std::move(candidate);
      dropped = true;
    }
  }
  return dropped;
}

}  // namespace

void CaseReport::Diff(const std::string& path, const std::string& query,
                      const MatchSet& expected, const MatchSet& got) {
  if (expected == got) return;
  Mismatch m;
  m.query = query;
  m.path = path;
  m.oracle_count = expected.size();
  m.path_count = got.size();
  constexpr size_t kSampleCap = 4;
  std::set_difference(expected.begin(), expected.end(), got.begin(),
                      got.end(), std::back_inserter(m.missing));
  std::set_difference(got.begin(), got.end(), expected.begin(),
                      expected.end(), std::back_inserter(m.extra));
  if (m.missing.size() > kSampleCap) m.missing.resize(kSampleCap);
  if (m.extra.size() > kSampleCap) m.extra.resize(kSampleCap);
  mismatches.push_back(std::move(m));
}

std::string CaseReport::ToString() const {
  if (mismatches.empty()) return "all paths agree\n";
  std::string out;
  for (const Mismatch& m : mismatches) {
    out += "query " + m.query + " path " + m.path + ": oracle " +
           std::to_string(m.oracle_count) + " matches, path " +
           std::to_string(m.path_count) + "\n";
    for (const std::string& fp : m.missing) out += "  missing " + fp + "\n";
    for (const std::string& fp : m.extra) out += "  extra   " + fp + "\n";
  }
  return out;
}

std::map<std::string, MatchSet> SinkMatches(const RunResult& run) {
  std::map<std::string, MatchSet> sets;
  for (const auto& [sink, events] : run.sink_events) {
    MatchSet& set = sets[sink];
    for (const Event& e : events) set.insert(e.Fingerprint());
  }
  return sets;
}

std::string Failure::ToString() const {
  std::string out = "-- failing case (seed " + std::to_string(case_seed) +
                    ") --\n" + report + "-- workload --\n" + workload_text +
                    "-- stream --\n" + stream_csv;
  if (!script.empty()) out += "-- script --\n" + script;
  if (!kill_plan.empty()) out += "-- kill plan --\n" + kill_plan;
  if (!repro.empty()) out += "-- repro --\n" + repro;
  return out;
}

Result<CaseReport> CheckCase(const std::vector<Query>& queries,
                             const EventStream& stream,
                             EventTypeRegistry* registry,
                             const DifferOptions& options) {
  PathMatches oracle;
  for (const Query& query : queries) {
    MOTTO_ASSIGN_OR_RETURN(oracle[query.name], OracleMatches(query, stream));
  }
  StreamStats stats = ComputeStats(stream);

  std::vector<std::pair<std::string, PathMatches>> paths;

  // Path "matcher": each query compiled alone (NA, one chain), the closest
  // the executor gets to a bare NFA run per query.
  {
    PathMatches matches;
    for (const Query& query : queries) {
      MOTTO_ASSIGN_OR_RETURN(
          OptimizeOutcome outcome,
          OptimizePlan({query}, registry, stats, OptimizerMode::kNa,
                       options.seed, /*approximate=*/false));
      MOTTO_ASSIGN_OR_RETURN(RunResult run, RunJqp(outcome.jqp, stream));
      matches[query.name] = std::move(SinkMatches(run)[query.name]);
    }
    paths.emplace_back("matcher", std::move(matches));
  }

  // Path "unshared": the whole workload as independent chains.
  {
    MOTTO_ASSIGN_OR_RETURN(
        OptimizeOutcome outcome,
        OptimizePlan(queries, registry, stats, OptimizerMode::kNa,
                     options.seed, /*approximate=*/false));
    MOTTO_ASSIGN_OR_RETURN(RunResult run, RunJqp(outcome.jqp, stream));
    paths.emplace_back("unshared", SinkMatches(run));

    // Path "unshared-lazy": the same chains with every eligible node
    // evaluated in its planner-chosen selectivity order — the minimal
    // eager-vs-lazy differential, no sharing rewrites in the way.
    MOTTO_ASSIGN_OR_RETURN(
        RunResult lazy_run,
        RunJqp(outcome.jqp, stream, EvalOrderMode::kSelectivity));
    paths.emplace_back("unshared-lazy", SinkMatches(lazy_run));
  }

  // Paths "motto-bnb" / "motto-par": the fully optimized JQP from the exact
  // branch-and-bound solve, single-threaded and through the pipelined
  // parallel executor (7-event batches so fuzz streams cross many batch
  // boundaries).
  {
    MOTTO_ASSIGN_OR_RETURN(
        OptimizeOutcome outcome,
        OptimizePlan(queries, registry, stats, OptimizerMode::kMotto,
                     options.seed, /*approximate=*/false));
    MOTTO_ASSIGN_OR_RETURN(RunResult run, RunJqp(outcome.jqp, stream));
    paths.emplace_back("motto-bnb", SinkMatches(run));

    // Path "motto-lazy": the same fully rewritten plan in selectivity
    // order. Lazy buffering must survive composite operands, merge nodes
    // and selector predicates, not just bare per-query chains.
    MOTTO_ASSIGN_OR_RETURN(
        RunResult lazy_run,
        RunJqp(outcome.jqp, stream, EvalOrderMode::kSelectivity));
    paths.emplace_back("motto-lazy", SinkMatches(lazy_run));

    MOTTO_ASSIGN_OR_RETURN(
        ParallelExecutor parallel,
        ParallelExecutor::Create(outcome.jqp, options.threads,
                                 /*batch_size=*/7, /*pipe_depth=*/2));
    MOTTO_ASSIGN_OR_RETURN(RunResult parallel_run, parallel.Run(stream));
    paths.emplace_back("motto-par", SinkMatches(parallel_run));

    // Path "motto-shard": the same exact JQP through the sharded
    // data-parallel executor. More shards than the plan has components
    // forces time-sliced replicas, so attribution keys, warm-up context and
    // the tie-safe slicer are all on the hook here.
    MOTTO_ASSIGN_OR_RETURN(
        ShardedExecutor sharded,
        ShardedExecutor::Create(outcome.jqp, options.shards,
                                /*num_threads=*/2));
    MOTTO_ASSIGN_OR_RETURN(RunResult sharded_run, sharded.Run(stream));
    paths.emplace_back("motto-shard", SinkMatches(sharded_run));
  }

  // Path "motto-sa": the plan the simulated-annealing solver picks. Its
  // sharing choices may differ from B&B's; its results must not.
  {
    MOTTO_ASSIGN_OR_RETURN(
        OptimizeOutcome outcome,
        OptimizePlan(queries, registry, stats, OptimizerMode::kMotto,
                     options.seed, /*approximate=*/true));
    MOTTO_ASSIGN_OR_RETURN(RunResult run, RunJqp(outcome.jqp, stream));
    paths.emplace_back("motto-sa", SinkMatches(run));
  }

  CaseReport report;
  for (const Query& query : queries) {
    for (auto& [name, matches] : paths) {
      report.Diff(name, query.name, oracle[query.name], matches[query.name]);
    }
  }
  return report;
}

int ShrinkCase(DiffCase* c, EventTypeRegistry* registry,
               const CaseCheck& check) {
  constexpr int kMaxChecks = 400;
  int checks = 0;
  // A check error (e.g. the oracle budget) counts as "no longer failing",
  // so shrinking never walks into cases that cannot be evaluated.
  auto still_fails = [&](const DiffCase& candidate) {
    if (checks >= kMaxChecks) return false;
    ++checks;
    Result<CaseReport> report = check(candidate, registry);
    return report.ok() && !report->ok();
  };

  // Whole queries, script commands and kills first, fewer queries making
  // every later check cheaper; then the smallest checkpoint interval of
  // 1, 2, 4, ... that still fails, which moves each kill's resume point
  // nearer the kill. Repeat until nothing changes: dropping a remove
  // command can free the query it removed.
  for (bool changed = true; changed;) {
    changed = DropEach(
        c, 1, [](DiffCase& d) -> auto& { return d.queries; }, still_fails);
    changed |= DropEach(
        c, 0, [](DiffCase& d) -> auto& { return d.script.commands; },
        still_fails);
    if (!c->recovery) continue;
    changed |= DropEach(
        c, 0, [](DiffCase& d) -> auto& { return d.recovery->kills; },
        still_fails);
    for (uint64_t interval = 1; interval < c->recovery->checkpoint_interval;
         interval *= 2) {
      DiffCase candidate = *c;
      candidate.recovery->checkpoint_interval = interval;
      if (still_fails(candidate)) {
        *c = std::move(candidate);
        changed = true;
        break;
      }
    }
  }

  // ddmin on the stream: remove contiguous chunks, halving the chunk size
  // when a pass removes nothing (removal keeps the stream sorted, so
  // candidates stay valid). A kill stays after the same surviving event.
  size_t chunk = std::max<size_t>(1, c->stream.size() / 2);
  while (checks < kMaxChecks) {
    bool removed = false;
    for (size_t start = 0; start < c->stream.size() && checks < kMaxChecks;) {
      const size_t stop = std::min(c->stream.size(), start + chunk);
      DiffCase candidate = *c;
      candidate.stream.erase(
          candidate.stream.begin() + static_cast<ptrdiff_t>(start),
          candidate.stream.begin() + static_cast<ptrdiff_t>(stop));
      if (candidate.recovery) {
        for (RecoveryKill& kill : candidate.recovery->kills) {
          if (kill.after_events <= start) continue;
          kill.after_events -= std::min<uint64_t>(kill.after_events, stop) -
                               start;
        }
      }
      if (!candidate.stream.empty() && still_fails(candidate)) {
        *c = std::move(candidate);
        removed = true;
      } else {
        start += chunk;
      }
    }
    if (!removed) {
      if (chunk == 1) break;
      chunk = std::max<size_t>(1, chunk / 2);
    }
  }
  return checks;
}

Result<DiffOutcome> RunCases(uint64_t seed, int iterations,
                             const FuzzOptions& fuzz,
                             const CaseDerivation& derive,
                             const CaseCheck& check) {
  DiffOutcome outcome;
  for (int i = 0; i < iterations; ++i) {
    const uint64_t case_seed = seed + static_cast<uint64_t>(i);
    EventTypeRegistry registry;
    QueryFuzzer fuzzer(&registry, fuzz, case_seed);
    DiffCase c{fuzzer.Next(), {}, {}};
    ++outcome.iterations;
    if (derive && !derive(case_seed, i, &fuzzer, &c)) {
      ++outcome.skipped;
      continue;
    }

    Result<CaseReport> report = check(c, &registry);
    if (!report.ok()) {
      if (report.status().code() == StatusCode::kOutOfRange) {
        ++outcome.skipped;
        continue;
      }
      return Status(report.status().code(),
                    "case seed " + std::to_string(case_seed) + ": " +
                        report.status().message());
    }
    if (c.recovery) {
      for (const RecoveryKill& kill : c.recovery->kills) {
        ++outcome.kills[kill.kind];
      }
    }
    if (report->ok()) continue;

    ShrinkCase(&c, &registry, check);
    // Re-derive the report for the minimized case (shrinking preserves
    // "some mismatch", not the specific one).
    Result<CaseReport> minimized = check(c, &registry);
    if (minimized.ok() && !minimized->ok()) report = std::move(minimized);

    Failure failure;
    failure.case_seed = case_seed;
    failure.report = report->ToString();
    failure.workload_text = WorkloadToText(c.queries, registry);
    failure.stream_csv = StreamToCsv(c.stream, registry);
    for (const ChurnCommand& cmd : c.script.commands) {
      failure.script += std::to_string(cmd.ts) +
                        (cmd.add ? " add " + WorkloadToText({cmd.query},
                                                            registry)
                                 : " remove " + cmd.name + "\n");
    }
    if (c.recovery) failure.kill_plan = KillPlanText(*c.recovery);
    outcome.failures.push_back(std::move(failure));
  }
  return outcome;
}

Result<DiffOutcome> RunDiffer(const DifferOptions& options) {
  MOTTO_ASSIGN_OR_RETURN(
      DiffOutcome outcome,
      RunCases(options.seed, options.iterations, options.fuzz, nullptr,
               [&options](const DiffCase& c, EventTypeRegistry* registry) {
                 return CheckCase(c.queries, c.stream, registry, options);
               }));
  for (Failure& failure : outcome.failures) {
    failure.repro = "motto verify --seed=" + std::to_string(failure.case_seed) +
                    " --iters=1\n";
    if (options.dump_dir.empty()) continue;
    const std::string base =
        options.dump_dir + "/case_" + std::to_string(failure.case_seed);
    for (const auto& [path, text] :
         {std::pair{base + ".ccl", &failure.workload_text},
          std::pair{base + ".csv", &failure.stream_csv}}) {
      std::ofstream out(path);
      out << *text;
      if (!out) return InternalError("cannot write " + path);
    }
    failure.repro += "motto verify --workload=" + base + ".ccl --stream=" +
                     base + ".csv\n";
  }
  return outcome;
}

}  // namespace motto::verify
