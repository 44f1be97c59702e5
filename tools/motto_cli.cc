// motto — command-line front end for the MOTTO CEP multi-query optimizer.
//
// Each command declares its flags once, in kCommands at the bottom of this
// file (common/flags.h): the table parses them, refuses anything it does not
// declare, and prints `motto <command> --help`. Exit codes: 0 success, 1 a
// bad flag or a failed command, 2 a missing or unknown command.
//
// Queries: one CCL statement per line, optional "name:" prefix, '#' comments:
//   lost: SELECT * FROM dc MATCHING [30 sec : SEQ(a, b, NEG(c))]
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "common/flags.h"
#include "common/json.h"
#include "common/parse.h"
#include "engine/partition.h"
#include "motto/churn.h"
#include "motto/optimizer.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/opt_trace.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "serve/status.h"
#include "serve/wire.h"
#include "verify/differ.h"
#include "verify/recovery_differ.h"
#include "workload/data_gen.h"
#include "workload/harness.h"
#include "workload/io.h"
#include "workload/query_gen.h"

namespace motto::cli {
namespace {

using enum FlagKind;
using enum FlagMin;

// Flags that several commands share.
const FlagSpec kWorkload{"workload", kString, "workload.ccl", kNone,
                         "CCL file"};
const FlagSpec kStream{"stream", kString, "", kNone,
                       "events CSV; default: 30000 --scenario events"};
const FlagSpec kScenario{"scenario", kString, "stock", kNone, "stock|dc"};
const FlagSpec kMode{"mode", kString, "motto", kNone, "na|mst|lcse|motto"};
const FlagSpec kCalibration{"calibration", kString, "", kNone,
                            "cost multipliers, e.g. DST=0.73,MST=1.03"};
const FlagSpec kEvalOrder{"eval-order", kString, "arrival", kNone,
                          "arrival|selectivity"};
const FlagSpec kShards{"shards", kInt, "1", kPositive, "N > 1: sharded run"};
const FlagSpec kThreads{"threads", kInt, "1", kPositive,
                        "N > 1 without --shards: pipelined run"};
const FlagSpec kMetricsOut{"metrics-out", kString, "", kNone,
                           "write the metrics as JSON to FILE"};

Result<Scenario> ScenarioFrom(const std::string& name) {
  if (name == "stock" || name == "stock-market") return Scenario::kStockMarket;
  if (name == "dc" || name == "datacenter") return Scenario::kDataCenter;
  return InvalidArgumentError("unknown scenario '" + name + "' (stock|dc)");
}

Result<EvalOrderMode> EvalOrderFrom(const std::string& name) {
  if (name == "arrival") return EvalOrderMode::kArrival;
  if (name == "selectivity" || name == "lazy") {
    return EvalOrderMode::kSelectivity;
  }
  return InvalidArgumentError("unknown eval order '" + name +
                              "' (arrival|selectivity)");
}

/// Parses `--calibration=FAMILY=MULT,...` (e.g. "DST=0.73,MST=1.03"):
/// per-family measured/predicted miss ratios from a prior `motto run
/// --calibrate`, fed to evaluation-order planning.
Result<std::vector<std::pair<std::string, double>>> CalibrationFrom(
    const std::string& spec) {
  std::vector<std::pair<std::string, double>> calibration;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string entry = spec.substr(pos, comma - pos);
    size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      return InvalidArgumentError("bad calibration entry '" + entry +
                                  "' (want FAMILY=MULTIPLIER)");
    }
    Result<double> multiplier = ParseDouble(entry.substr(eq + 1));
    if (!multiplier.ok() || *multiplier <= 0.0) {
      return InvalidArgumentError("bad calibration multiplier in '" + entry +
                                  "' (want a finite number > 0)");
    }
    calibration.emplace_back(entry.substr(0, eq), *multiplier);
    pos = comma + 1;
  }
  return calibration;
}

Result<OptimizerOptions> OptimizerOptionsFrom(const FlagSet& flags) {
  OptimizerOptions options;
  const std::string& mode = flags.String("mode");
  if (mode == "na") {
    options.mode = OptimizerMode::kNa;
  } else if (mode == "mst") {
    options.mode = OptimizerMode::kMst;
  } else if (mode == "lcse") {
    options.mode = OptimizerMode::kLcse;
  } else if (mode != "motto") {
    return InvalidArgumentError("unknown mode '" + mode +
                                "' (na|mst|lcse|motto)");
  }
  MOTTO_ASSIGN_OR_RETURN(options.calibration,
                         CalibrationFrom(flags.String("calibration")));
  return options;
}

/// What explain, run, compare and serve start from: the --workload queries,
/// and statistics of the --stream events or, without --stream, of a
/// synthetic --scenario stream.
struct Inputs {
  EventTypeRegistry registry;
  std::vector<Query> queries;
  EventStream stream;  // Empty unless loaded with keep_stream.
  StreamStats stats;
};

Result<Inputs> LoadInputs(const FlagSet& flags, bool keep_stream) {
  Inputs in;
  MOTTO_ASSIGN_OR_RETURN(
      in.queries, LoadWorkloadFile(flags.String("workload"), &in.registry));
  if (flags.String("stream").empty()) {
    StreamOptions options;
    MOTTO_ASSIGN_OR_RETURN(options.scenario,
                           ScenarioFrom(flags.String("scenario")));
    options.num_events = 30000;
    in.stream = GenerateStream(options, &in.registry);
  } else {
    MOTTO_ASSIGN_OR_RETURN(
        in.stream, LoadStreamCsv(flags.String("stream"), &in.registry));
  }
  in.stats = ComputeStats(in.stream);
  if (!keep_stream) EventStream().swap(in.stream);
  return in;
}

/// Writes `doc` to `path` and says so, naming it `what`; an empty `path`
/// (the bare `--json` / `--dot` form) writes to stdout instead.
Status WriteDocument(const std::string& path, const std::string& doc,
                     const std::string& what) {
  if (path.empty()) {
    std::fwrite(doc.data(), 1, doc.size(), stdout);
    return Status::Ok();
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return InternalError("cannot open " + path);
  out << doc;
  if (!out.flush()) return InternalError("write failed for " + path);
  std::printf("wrote %s to %s\n", what.c_str(), path.c_str());
  return Status::Ok();
}

Result<int> GenStream(const FlagSet& flags) {
  EventTypeRegistry registry;
  StreamOptions options;
  MOTTO_ASSIGN_OR_RETURN(options.scenario,
                         ScenarioFrom(flags.String("scenario")));
  options.num_events = flags.Int("events");
  options.seed = static_cast<uint64_t>(flags.Int("seed"));
  EventStream stream = GenerateStream(options, &registry);
  const std::string& out = flags.String("out");
  MOTTO_RETURN_IF_ERROR(SaveStreamCsv(out, stream, registry));
  std::printf("wrote %zu events (%s scenario) to %s\n", stream.size(),
              std::string(ScenarioName(options.scenario)).c_str(),
              out.c_str());
  return 0;
}

Result<int> GenWorkload(const FlagSet& flags) {
  EventTypeRegistry registry;
  WorkloadOptions options;
  MOTTO_ASSIGN_OR_RETURN(options.scenario,
                         ScenarioFrom(flags.String("scenario")));
  options.num_queries = static_cast<int>(flags.Int("queries"));
  options.basic_ratio = flags.Double("ratio") / 100.0;
  options.seed = static_cast<uint64_t>(flags.Int("seed"));
  options.nested_level = static_cast<int>(flags.Int("nested_level"));
  MOTTO_ASSIGN_OR_RETURN(GeneratedWorkload workload,
                         GenerateWorkload(options, &registry));
  const std::string& out = flags.String("out");
  MOTTO_RETURN_IF_ERROR(SaveWorkloadFile(out, workload.queries, registry));
  std::printf("wrote %zu queries to %s\n", workload.queries.size(),
              out.c_str());
  return 0;
}

Result<int> Explain(const FlagSet& flags) {
  MOTTO_ASSIGN_OR_RETURN(Inputs in, LoadInputs(flags, /*keep_stream=*/false));
  MOTTO_ASSIGN_OR_RETURN(OptimizerOptions options,
                         OptimizerOptionsFrom(flags));
  const std::string& solver = flags.String("solver");
  if (solver == "sa") {
    options.planner.force_approximate = true;
  } else if (solver != "bnb") {
    return InvalidArgumentError("unknown solver '" + solver + "' (bnb|sa)");
  }
  obs::OptimizerProbe probe;
  options.probe = &probe;
  Optimizer optimizer(&in.registry, in.stats, options);
  MOTTO_ASSIGN_OR_RETURN(OptimizeOutcome outcome,
                         optimizer.Optimize(in.queries));

  obs::PlanExplain explain = obs::BuildPlanExplain(
      outcome, in.stats, OptimizerModeName(options.mode));
  std::optional<PartitionPlan> partition;
  if (flags.Has("shards")) {
    partition = PartitionPlan::Build(outcome.jqp,
                                     static_cast<int>(flags.Int("shards")));
  }
  if (flags.Has("json")) {
    std::string json = explain.ToJson(&probe, partition ? partition->ToJson()
                                                        : std::string());
    MOTTO_RETURN_IF_ERROR(
        WriteDocument(flags.String("json"), json + "\n", "explain json"));
  }
  if (flags.Has("dot")) {
    MOTTO_RETURN_IF_ERROR(
        WriteDocument(flags.String("dot"), explain.ToDot(), "explain dot"));
  }
  if (flags.Has("json") || flags.Has("dot")) return 0;

  std::printf("-- sharing graph --\n%s",
              outcome.sharing_graph.ToString(in.registry).c_str());
  std::printf("\n-- optimizer --\n%s", probe.Summary().c_str());
  std::printf("\n-- plan (%s, cost %.2f vs %.2f unshared) --\n%s",
              outcome.exact ? "exact" : "approximate", outcome.planned_cost,
              outcome.default_cost, outcome.jqp.ToString(in.registry).c_str());
  if (partition) {
    std::printf("\n-- partition --\n%s",
                partition->ToString(outcome.jqp).c_str());
  }
  return 0;
}

/// `motto run --churn=FILE.script`: replays the stream while applying the
/// scripted add/remove commands — each one triggers an incremental re-plan
/// (only the affected sharing-graph region is re-solved) and a live plan
/// swap that migrates surviving matcher state (DESIGN.md §14).
Status Churn(const FlagSet& flags, Inputs* in, const OptimizerOptions& options,
             const ExecutorOptions& exec_options) {
  if (options.mode != OptimizerMode::kMotto) {
    return InvalidArgumentError("--churn requires --mode=motto");
  }
  if (flags.Int("shards") > 1 || flags.Int("threads") > 1) {
    return InvalidArgumentError(
        "--churn migrates state between single-threaded executor sessions; "
        "drop --shards/--threads");
  }
  if (flags.Has("stats") || flags.Has("calibrate") || flags.Has("trace")) {
    return InvalidArgumentError(
        "--churn does not support --stats, --calibrate or --trace");
  }
  MOTTO_ASSIGN_OR_RETURN(ChurnScript script,
                         LoadChurnScript(flags.String("churn"), &in->registry));
  ChurnRunOptions run_options;
  run_options.executor = exec_options;
  MOTTO_ASSIGN_OR_RETURN(
      ChurnOutcome outcome,
      RunChurn(in->queries, script, in->stream, &in->registry, options,
               run_options));
  const RunResult& run = outcome.result;
  std::printf("%llu events in %.3fs (%.0f events/s), %zu commands, "
              "%zu plan swaps\n",
              static_cast<unsigned long long>(run.raw_events),
              run.elapsed_seconds, run.ThroughputEps(),
              script.commands.size(), outcome.migration.swaps);
  for (const ReoptimizeStats& r : outcome.reoptimizations) {
    if (r.added) {
      std::printf("  re-plan add '%s': re-solved %zu of %zu graph nodes "
                  "(%zu pinned, %zu re-decided), %s, %.3fs\n",
                  r.query.c_str(), r.region_nodes, r.graph_nodes,
                  r.pinned_nodes, r.free_nodes,
                  r.exact ? "exact" : "approximate", r.solve_seconds);
    } else {
      std::printf("  re-plan remove '%s': pruned (no re-solve), "
                  "plan cost %.2f\n",
                  r.query.c_str(), r.plan_cost);
    }
  }
  const MigrationStats& m = outcome.migration;
  std::printf("  migration: %zu nodes kept, %zu fresh, %zu dropped, "
              "%zu failed imports; %zu partials + %zu pending + %zu buffered "
              "transferred\n",
              m.nodes_kept, m.nodes_new, m.nodes_dropped, m.imports_failed,
              m.partials_transferred, m.pending_transferred,
              m.buffered_transferred);
  for (const auto& [name, window] : outcome.windows) {
    auto it = run.sink_counts.find(name);
    std::string live = "[";
    live += window.first == kAlwaysLive ? "start"
                                        : std::to_string(window.first);
    live += ", ";
    live += window.second == kNeverRemoved ? "end"
                                           : std::to_string(window.second);
    live += ")";
    std::printf("  %-16s %llu matches, live %s\n", name.c_str(),
                static_cast<unsigned long long>(
                    it == run.sink_counts.end() ? 0 : it->second),
                live.c_str());
  }
  return Status::Ok();
}

/// Optimizes the workload and replays the stream through the plan.
Status RunPlan(const FlagSet& flags, Inputs* in,
               const OptimizerOptions& options, ExecutorOptions exec_options,
               obs::MetricsRegistry* metrics) {
  Optimizer optimizer(&in->registry, in->stats, options);
  MOTTO_ASSIGN_OR_RETURN(OptimizeOutcome outcome,
                         optimizer.Optimize(in->queries));
  const bool want_stats = flags.Has("stats");
  const bool want_calibrate = flags.Has("calibrate");
  const std::string& trace_path = flags.String("trace");
  obs::TraceSink trace_sink;
  // Calibration joins predicted costs against measured per-node timing.
  exec_options.collect_node_timing = want_stats || want_calibrate;
  if (want_stats) exec_options.metrics = metrics;
  if (!trace_path.empty()) exec_options.trace = &trace_sink;

  MOTTO_ASSIGN_OR_RETURN(
      AnyExecutor executor,
      MakeExecutor(outcome.jqp, static_cast<int>(flags.Int("shards")),
                   static_cast<int>(flags.Int("threads"))));
  MOTTO_ASSIGN_OR_RETURN(RunResult run,
                         executor.Run(in->stream, exec_options));
  std::printf("%llu events in %.3fs (%.0f events/s), plan %zu nodes (%s)\n",
              static_cast<unsigned long long>(run.raw_events),
              run.elapsed_seconds, run.ThroughputEps(),
              outcome.jqp.nodes.size(),
              std::string(OptimizerModeName(options.mode)).c_str());
  if (run.sharded.shards > 0) {
    std::printf("  sharded: %d shards over %d threads, %d groups, "
                "skew %.2fx (max %.3fs vs mean %.3fs busy)\n",
                run.sharded.shards, run.sharded.threads, run.sharded.groups,
                run.sharded.skew, run.sharded.max_busy_seconds,
                run.sharded.mean_busy_seconds);
  }
  for (const Query& query : in->queries) {
    auto it = run.sink_counts.find(query.name);
    std::printf("  %-16s %llu matches\n", query.name.c_str(),
                static_cast<unsigned long long>(
                    it == run.sink_counts.end() ? 0 : it->second));
  }
  if (want_stats) {
    obs::RunReport report = obs::BuildRunReport(outcome.jqp, in->stats, run);
    if (flags.String("stats") == "json") {
      std::printf("%s\n", report.ToJson().c_str());
    } else {
      std::printf("%s", report.ToTable().c_str());
    }
  }
  if (want_calibrate) {
    obs::RunReport report = obs::BuildRunReport(outcome.jqp, in->stats, run);
    obs::PlanExplain explain = obs::BuildPlanExplain(
        outcome, in->stats, OptimizerModeName(options.mode));
    obs::CalibrationReport calibration = obs::BuildCalibration(explain, report);
    if (flags.String("calibrate") == "json") {
      std::printf("%s\n", calibration.ToJson().c_str());
    } else {
      std::printf("-- calibration (predicted vs measured by rewrite family) "
                  "--\n%s",
                  calibration.ToTable().c_str());
    }
  }
  if (!trace_path.empty()) {
    MOTTO_RETURN_IF_ERROR(trace_sink.WriteJson(trace_path));
    std::printf("wrote %zu trace events to %s\n", trace_sink.event_count(),
                trace_path.c_str());
  }
  return Status::Ok();
}

Result<int> Run(const FlagSet& flags) {
  MOTTO_ASSIGN_OR_RETURN(Inputs in, LoadInputs(flags, /*keep_stream=*/true));
  MOTTO_ASSIGN_OR_RETURN(OptimizerOptions options,
                         OptimizerOptionsFrom(flags));
  ExecutorOptions exec_options;
  MOTTO_ASSIGN_OR_RETURN(exec_options.eval_order,
                         EvalOrderFrom(flags.String("eval-order")));
  obs::MetricsRegistry metrics;
  const std::string& metrics_path = flags.String("metrics-out");
  if (!metrics_path.empty()) exec_options.metrics = &metrics;
  MOTTO_RETURN_IF_ERROR(
      flags.Has("churn")
          ? Churn(flags, &in, options, exec_options)
          : RunPlan(flags, &in, options, exec_options, &metrics));
  if (!metrics_path.empty()) {
    MOTTO_RETURN_IF_ERROR(
        WriteDocument(metrics_path, metrics.ToJson() + "\n", "metrics"));
  }
  return 0;
}

Result<int> Compare(const FlagSet& flags) {
  MOTTO_ASSIGN_OR_RETURN(Inputs in, LoadInputs(flags, /*keep_stream=*/true));
  ComparisonOptions options;
  options.warmup = true;
  options.measure_runs = static_cast<int>(flags.Int("runs"));
  options.collect_reports = flags.Switch("reports");
  options.shards = static_cast<int>(flags.Int("shards"));
  options.threads = static_cast<int>(flags.Int("threads"));
  MOTTO_ASSIGN_OR_RETURN(options.eval_order,
                         EvalOrderFrom(flags.String("eval-order")));
  MOTTO_ASSIGN_OR_RETURN(options.calibration,
                         CalibrationFrom(flags.String("calibration")));
  MOTTO_ASSIGN_OR_RETURN(
      std::vector<ModeRun> runs,
      CompareModes(in.queries, in.stream, &in.registry, options));
  std::printf(" mode  | events/s  | x NA  | opt s  | plan nodes | matches\n");
  for (const ModeRun& run : runs) {
    std::printf(" %-5s | %9.0f | %5.2f | %6.3f | %10zu | %llu\n",
                std::string(OptimizerModeName(run.mode)).c_str(),
                run.throughput_eps, run.normalized, run.optimize_seconds,
                run.jqp_nodes,
                static_cast<unsigned long long>(run.total_matches));
    for (const std::string& warning : run.report.warnings) {
      std::printf("   warning: %s\n", warning.c_str());
    }
  }
  if (options.collect_reports) {
    for (const ModeRun& run : runs) {
      std::printf("\n-- %s report --\n%s",
                  std::string(OptimizerModeName(run.mode)).c_str(),
                  run.report.ToTable().c_str());
    }
  }
  return 0;
}

/// `motto wire-encode`: renders a CSV stream as the binary wire format
/// `motto serve` ingests (DESIGN.md §15). `--skip=N` is the resume path: a
/// client re-sending after a crash skips the events the server's recovered
/// checkpoint already ingested.
Result<int> WireEncode(const FlagSet& flags) {
  EventTypeRegistry registry;
  MOTTO_ASSIGN_OR_RETURN(EventStream stream,
                         LoadStreamCsv(flags.String("stream"), &registry));
  serve::EncodeStreamOptions options;
  options.skip_events = static_cast<uint64_t>(flags.Int("skip"));
  options.limit_events = static_cast<uint64_t>(flags.Int("limit"));
  options.checkpoint_every =
      static_cast<uint64_t>(flags.Int("checkpoint-every"));
  options.with_end = !flags.Switch("no-end");
  std::string bytes = serve::EncodeStream(stream, registry, options);
  uint64_t remaining =
      static_cast<uint64_t>(stream.size()) -
      std::min(options.skip_events, static_cast<uint64_t>(stream.size()));
  if (options.limit_events > 0) {
    remaining = std::min(remaining, options.limit_events);
  }
  MOTTO_RETURN_IF_ERROR(WriteDocument(
      flags.String("out"), bytes,
      std::to_string(bytes.size()) + " bytes (" + std::to_string(remaining) +
          " events, " + std::to_string(options.skip_events) + " skipped)"));
  return 0;
}

/// Self-pipe for graceful shutdown (DESIGN.md §16): the handler writes one
/// byte; the ingest loop's reader thread polls the read end alongside the
/// transport, so SIGTERM/SIGINT drain the queue, checkpoint, and exit 0.
int g_shutdown_pipe[2] = {-1, -1};

void OnShutdownSignal(int /*signum*/) {
  const char byte = 1;
  // write(2) is async-signal-safe; a full pipe just means a byte is already
  // pending, which is all the poller needs.
  [[maybe_unused]] ssize_t n = ::write(g_shutdown_pipe[1], &byte, 1);
}

Result<int> InstallShutdownPipe() {
  if (g_shutdown_pipe[0] < 0 && ::pipe(g_shutdown_pipe) != 0) {
    return InternalError(std::string("pipe: ") + std::strerror(errno));
  }
  struct sigaction action {};
  action.sa_handler = OnShutdownSignal;
  sigemptyset(&action.sa_mask);
  // No SA_RESTART: blocking reads/polls must wake with EINTR and re-check.
  if (::sigaction(SIGTERM, &action, nullptr) != 0 ||
      ::sigaction(SIGINT, &action, nullptr) != 0) {
    return InternalError(std::string("sigaction: ") + std::strerror(errno));
  }
  return g_shutdown_pipe[0];
}

/// `motto serve` (DESIGN.md §15): the long-running ingest server. Frames
/// arrive on stdin (default) or one-at-a-time TCP clients; matches release
/// to per-connection files under the checkpoint output-commit discipline,
/// so SIGKILL + restart + re-send from the printed resume offset emits
/// exactly what a never-killed run would.
Result<int> Serve(const FlagSet& flags) {
  MOTTO_ASSIGN_OR_RETURN(Inputs in, LoadInputs(flags, /*keep_stream=*/false));
  serve::ServeOptions options;
  options.checkpoint_dir = flags.String("checkpoint-dir");
  options.checkpoint_interval =
      static_cast<uint64_t>(flags.Int("checkpoint-interval"));
  options.out_dir = flags.String("out-dir");
  MOTTO_ASSIGN_OR_RETURN(options.eval_order,
                         EvalOrderFrom(flags.String("eval-order")));
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;

  MOTTO_ASSIGN_OR_RETURN(
      std::unique_ptr<serve::ServeCore> core,
      serve::ServeCore::Create(in.queries, in.registry, in.stats,
                               std::move(options)));
  const serve::RecoveryInfo& r = core->recovery();
  for (const std::string& warning : r.warnings) {
    std::fprintf(stderr, "serve: warning: %s\n", warning.c_str());
  }
  if (r.recovered) {
    std::printf("serve: recovered checkpoint seq=%llu ingested=%llu "
                "watermark=%lld (nodes kept=%zu fresh=%zu failed=%zu)\n",
                static_cast<unsigned long long>(r.checkpoint_seq),
                static_cast<unsigned long long>(r.ingested),
                static_cast<long long>(r.watermark), r.nodes_kept,
                r.nodes_fresh, r.imports_failed);
  } else {
    std::printf("serve: fresh start\n");
  }

  serve::IngestOptions ingest;
  ingest.queue_capacity = static_cast<size_t>(flags.Int("ingest-queue"));
  const std::string& admission = flags.String("admission");
  if (admission == "shed") {
    ingest.shed = true;
  } else if (admission != "block") {
    return InvalidArgumentError("unknown --admission '" + admission +
                                "' (block|shed)");
  }
  MOTTO_ASSIGN_OR_RETURN(ingest.shutdown_fd, InstallShutdownPipe());

  // Telemetry (DESIGN.md §16): periodic snapshots whenever a status port or
  // stats log asks for them; the tick runs on the engine thread.
  serve::TelemetryOptions telemetry_options;
  telemetry_options.snapshot_interval_seconds =
      flags.Double("snapshot-interval");
  telemetry_options.snapshot_every_events =
      static_cast<uint64_t>(flags.Int("snapshot-every"));
  telemetry_options.stats_log_path = flags.String("stats-log");
  const bool want_telemetry =
      flags.Has("status-port") || !telemetry_options.stats_log_path.empty() ||
      telemetry_options.snapshot_every_events > 0;

  std::optional<serve::ServeTelemetry> telemetry;
  std::unique_ptr<serve::StatusServer> status_server;
  if (want_telemetry) {
    telemetry.emplace(core.get(), telemetry_options);
    MOTTO_RETURN_IF_ERROR(telemetry->status());
    telemetry->Tick(/*force=*/true);  // Publish before the first request.
    if (flags.Has("status-port")) {
      MOTTO_ASSIGN_OR_RETURN(
          status_server,
          serve::StatusServer::Start(
              static_cast<int>(flags.Int("status-port")),
              [t = &*telemetry] { return t->Latest(); }));
      std::printf("serve: status on 127.0.0.1:%d\n", status_server->port());
      std::fflush(stdout);
    }
    ingest.tick = [t = &*telemetry] { t->Tick(); };
    ingest.tick_period_seconds =
        telemetry_options.snapshot_interval_seconds > 0
            ? telemetry_options.snapshot_interval_seconds
            : 1.0;
  }

  Result<serve::IngestLoopResult> loop = serve::IngestLoopResult{};
  if (flags.Has("listen")) {
    int actual_port = 0;
    MOTTO_ASSIGN_OR_RETURN(
        int listen_fd,
        serve::ListenTcp(static_cast<int>(flags.Int("listen")), &actual_port));
    std::printf("serve: listening on 127.0.0.1:%d\n", actual_port);
    std::fflush(stdout);
    loop = serve::ServeTcpLoop(core.get(), listen_fd, ingest,
                               +[](uint32_t connection) {
                                 std::printf("serve: connection %u\n",
                                             connection);
                                 std::fflush(stdout);
                               });
    ::close(listen_fd);
  } else {
    std::printf("serve: ready\n");
    std::fflush(stdout);
    loop = serve::RunIngestLoop(core.get(), STDIN_FILENO, ingest);
  }
  MOTTO_RETURN_IF_ERROR(loop.status());

  int exit_code = 0;
  if (loop->end_seen) {
    MOTTO_RETURN_IF_ERROR(core->Finish().status());
    std::printf("serve: end of stream: %llu events, %llu checkpoints\n",
                static_cast<unsigned long long>(core->ingested()),
                static_cast<unsigned long long>(core->checkpoints_taken()));
    for (const auto& [sink, count] : core->sink_released()) {
      std::printf("  %s: %llu matches\n", sink.c_str(),
                  static_cast<unsigned long long>(count));
    }
  } else if (loop->shutdown_seen) {
    // SIGTERM/SIGINT: the queue is already drained into the engine; persist
    // a resumable checkpoint (no final window flush — a restart must emit
    // exactly what an uninterrupted run would) and leave cleanly.
    MOTTO_RETURN_IF_ERROR(core->Checkpoint());
    std::printf("serve: graceful shutdown: drained queue at ingested=%llu, "
                "checkpoint saved (resume with wire-encode --skip=%llu)\n",
                static_cast<unsigned long long>(core->ingested()),
                static_cast<unsigned long long>(core->ingested()));
  } else {
    // EOF (or decode error) without a kEnd frame — the SIGKILL-adjacent
    // path: persist a final snapshot and suspend; a restart resumes here.
    MOTTO_RETURN_IF_ERROR(core->Checkpoint());
    std::printf("serve: suspended at ingested=%llu (resume with "
                "wire-encode --skip=%llu)\n",
                static_cast<unsigned long long>(core->ingested()),
                static_cast<unsigned long long>(core->ingested()));
    if (!loop->error.empty()) {
      std::fprintf(stderr, "serve: stream error: %s\n", loop->error.c_str());
      exit_code = 1;
    }
  }
  if (loop->shed > 0) {
    std::printf("serve: shed %llu events (queue depth peaked at %zu)\n",
                static_cast<unsigned long long>(loop->shed),
                loop->max_queue_depth);
  }
  if (telemetry.has_value()) {
    // Final snapshot after the final checkpoint, so the last stats-log line
    // and the last scrape carry the closing counters.
    telemetry->Tick(/*force=*/true);
    if (status_server != nullptr) status_server->Stop();
    if (!telemetry->status().ok()) {
      const std::string message(telemetry->status().message());
      std::fprintf(stderr, "serve: warning: %s\n", message.c_str());
    }
  }
  const std::string& metrics_path = flags.String("metrics-out");
  if (!metrics_path.empty()) {
    MOTTO_RETURN_IF_ERROR(
        WriteDocument(metrics_path, metrics.ToJson() + "\n", "metrics"));
  }
  return exit_code;
}

/// One-shot HTTP/1.0 GET against the local status endpoint.
Result<std::string> HttpGetLocal(int port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return InternalError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = InternalError("connect 127.0.0.1:" + std::to_string(port) +
                                  ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  size_t written = 0;
  while (written < request.size()) {
    ssize_t n = ::write(fd, request.data() + written,
                        request.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status status = InternalError(std::string("write: ") +
                                    std::strerror(errno));
      ::close(fd);
      return status;
    }
    written += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  size_t header_end = response.find("\r\n\r\n");
  size_t code_at = response.find(' ');
  if (header_end == std::string::npos || code_at == std::string::npos) {
    return InternalError("malformed HTTP response from status port");
  }
  std::string code = response.substr(code_at + 1, 3);
  std::string body = response.substr(header_end + 4);
  if (code != "200") {
    return InternalError("status endpoint returned HTTP " + code + ": " +
                         body);
  }
  return body;
}

/// Last non-empty line of a stats-log JSONL file (the freshest snapshot).
Result<std::string> LastStatsLogLine(const std::string& path) {
  std::ifstream in(path);
  if (!in) return InternalError("cannot open " + path);
  std::string line;
  std::string last;
  while (std::getline(in, line)) {
    if (!line.empty()) last = line;
  }
  if (last.empty()) {
    return InternalError("no snapshot lines in " + path + " yet");
  }
  return last;
}

void RenderTop(const JsonValue& s) {
  std::string reason(s["health_reason"].AsString());
  std::printf("motto serve  seq %lld  up %.1fs  conn %lld  healthy %s%s%s\n",
              static_cast<long long>(s["seq"].AsInt64(0)),
              s["uptime_seconds"].AsDouble(0),
              static_cast<long long>(s["connection"].AsInt64(0)),
              s["healthy"].AsBool(false) ? "yes" : "NO",
              reason.empty() ? "" : " — ", reason.c_str());
  std::printf("ingested %lld (%.0f ev/s)  watermark %lld (idle %.1fs)  "
              "matches/s %.1f\n",
              static_cast<long long>(s["ingested"].AsInt64(0)),
              s["events_per_sec"].AsDouble(0),
              static_cast<long long>(s["watermark"].AsInt64(-1)),
              s["watermark_idle_seconds"].AsDouble(0),
              s["matches_per_sec"].AsDouble(0));
  const JsonValue& queue = s["queue"];
  std::printf("checkpoints %lld (age %.1fs)  queue %lld/%lld (peak %lld, "
              "shed %lld)\n",
              static_cast<long long>(s["checkpoints"].AsInt64(0)),
              s["checkpoint_age_seconds"].AsDouble(0),
              static_cast<long long>(queue["depth"].AsInt64(0)),
              static_cast<long long>(queue["capacity"].AsInt64(0)),
              static_cast<long long>(queue["max_depth"].AsInt64(0)),
              static_cast<long long>(queue["shed"].AsInt64(0)));
  std::printf("\n %-16s %-8s %10s %10s %6s %6s %12s\n", "QUERY", "STATE",
              "MATCHES", "RELEASED", "LAG", "CPU%", "LAST_EMIT");
  for (const JsonValue& q : s["queries"].array()) {
    char emit_buf[24];
    if (q["last_emit_ts"].AsInt64(std::numeric_limits<int64_t>::min()) ==
        std::numeric_limits<int64_t>::min()) {
      std::snprintf(emit_buf, sizeof(emit_buf), "-");
    } else {
      std::snprintf(emit_buf, sizeof(emit_buf), "%lld",
                    static_cast<long long>(q["last_emit_ts"].AsInt64(0)));
    }
    std::printf(" %-16s %-8s %10lld %10lld %6lld %6.1f %12s\n",
                q["name"].AsString().c_str(), q["state"].AsString().c_str(),
                static_cast<long long>(q["matches"].AsInt64(0)),
                static_cast<long long>(q["released"].AsInt64(0)),
                static_cast<long long>(q["outbox_lag"].AsInt64(0)),
                q["cpu_share"].AsDouble(0) * 100.0, emit_buf);
  }
  std::printf("\n %-5s %6s %10s %10s  %-24s %s\n", "NODE", "COST%", "IN",
              "OUT", "QUERIES", "LABEL");
  for (const JsonValue& n : s["nodes"].array()) {
    std::string owners;
    for (const JsonValue& q : n["queries"].array()) {
      if (!owners.empty()) owners += ",";
      owners += q.AsString();
    }
    if (owners.size() > 24) {
      owners.resize(21);
      owners += "...";
    }
    std::printf(" %-5lld %6.1f %10lld %10lld  %-24s %s\n",
                static_cast<long long>(n["id"].AsInt64(0)),
                n["cost_share"].AsDouble(0) * 100.0,
                static_cast<long long>(n["events_in"].AsInt64(0)),
                static_cast<long long>(n["events_out"].AsInt64(0)),
                owners.c_str(), n["label"].AsString().c_str());
  }
}

/// `motto top`: a refreshing terminal view of a running server's health,
/// polled from /statusz (--port) or tailed from a stats log (--from-log).
Result<int> Top(const FlagSet& flags) {
  const std::string& from_log = flags.String("from-log");
  const int port = static_cast<int>(flags.Int("port"));
  if (from_log.empty() && port <= 0) {
    return InvalidArgumentError(
        "motto top needs --port=P (a serve --status-port) or "
        "--from-log=FILE.jsonl");
  }
  int64_t remaining = flags.Switch("once") ? 1 : flags.Int("iterations");
  const bool clear = !flags.Switch("no-clear") && remaining != 1;
  for (int64_t shown = 0;; ++shown) {
    MOTTO_ASSIGN_OR_RETURN(std::string body,
                           from_log.empty() ? HttpGetLocal(port, "/statusz")
                                            : LastStatsLogLine(from_log));
    MOTTO_ASSIGN_OR_RETURN(JsonValue parsed, JsonValue::Parse(body));
    if (clear) std::printf("\x1b[H\x1b[2J");
    RenderTop(parsed);
    std::fflush(stdout);
    if (remaining > 0 && shown + 1 >= remaining) break;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(flags.Double("interval")));
  }
  return 0;
}

/// Differential verification (DESIGN.md §10). Fuzz mode checks N seeded
/// cases across every execution path; repro mode replays one dumped case.
Result<int> Verify(const FlagSet& flags) {
  verify::DifferOptions options;
  options.seed = static_cast<uint64_t>(flags.Int("seed"));
  options.iterations = static_cast<int>(flags.Int("iters"));
  options.threads = static_cast<int>(flags.Int("threads"));
  options.shards = static_cast<int>(flags.Int("shards"));
  options.fuzz.num_queries = static_cast<int>(flags.Int("queries"));
  options.fuzz.num_events = static_cast<int>(flags.Int("events"));
  options.dump_dir = flags.String("dump");

  if (!flags.String("workload").empty()) {
    // Repro mode: re-check one concrete (workload, stream) pair.
    EventTypeRegistry registry;
    MOTTO_ASSIGN_OR_RETURN(
        std::vector<Query> queries,
        LoadWorkloadFile(flags.String("workload"), &registry));
    MOTTO_ASSIGN_OR_RETURN(EventStream stream,
                           LoadStreamCsv(flags.String("stream"), &registry));
    MOTTO_ASSIGN_OR_RETURN(
        verify::CaseReport report,
        verify::CheckCase(queries, stream, &registry, options));
    std::printf("%s", report.ToString().c_str());
    return report.ok() ? 0 : 1;
  }

  MOTTO_ASSIGN_OR_RETURN(verify::DiffOutcome outcome,
                         verify::RunDiffer(options));
  std::printf("verify: %d cases (seed %llu..%llu), %d skipped, %zu failures\n",
              outcome.iterations,
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(
                  options.seed +
                  static_cast<uint64_t>(options.iterations) - 1),
              outcome.skipped, outcome.failures.size());
  for (const verify::Failure& failure : outcome.failures) {
    std::printf("\n-- failing case (seed %llu) --\n%s-- workload --\n%s"
                "-- repro --\n%s",
                static_cast<unsigned long long>(failure.case_seed),
                failure.report.c_str(), failure.workload_text.c_str(),
                failure.repro.c_str());
  }
  return outcome.ok() ? 0 : 1;
}

/// The crash-recovery differential loop behind `motto verify --recovery`
/// (DESIGN.md §15): fuzzed (workload, stream, kill-plan) triples, each
/// demanding a killed-and-recovered server emit exactly the uninterrupted
/// multiset.
Result<int> VerifyRecovery(const FlagSet& flags) {
  verify::RecoveryDifferOptions options;
  options.seed = static_cast<uint64_t>(flags.Int("seed"));
  options.iterations = static_cast<int>(flags.Int("iters"));
  options.fuzz.num_queries = static_cast<int>(flags.Int("queries"));
  options.fuzz.num_events = static_cast<int>(flags.Int("events"));
  options.shards = static_cast<int>(flags.Int("shards"));
  options.threads = static_cast<int>(flags.Int("threads"));
  options.work_dir = flags.String("work-dir");

  MOTTO_ASSIGN_OR_RETURN(verify::RecoveryOutcome outcome,
                         verify::RunRecoveryDiffer(options));
  std::printf(
      "verify --recovery: %d cases (seed %llu..%llu, %d skipped), %llu kills "
      "(torn-ckpt=%llu torn-out=%llu mid-ckpt=%llu), %zu failures\n",
      outcome.iterations, static_cast<unsigned long long>(options.seed),
      static_cast<unsigned long long>(
          options.seed + static_cast<uint64_t>(options.iterations) - 1),
      outcome.skipped, static_cast<unsigned long long>(outcome.kills),
      static_cast<unsigned long long>(outcome.torn_checkpoints),
      static_cast<unsigned long long>(outcome.torn_outputs),
      static_cast<unsigned long long>(outcome.mid_checkpoint_faults),
      outcome.failures.size());
  for (const verify::RecoveryFailure& failure : outcome.failures) {
    std::printf("\n-- failing case (seed %llu) --\n%s\n%s",
                static_cast<unsigned long long>(failure.case_seed),
                failure.detail.c_str(), failure.report.c_str());
    std::printf("repro: motto verify --recovery --seed=%llu --iters=1\n",
                static_cast<unsigned long long>(failure.case_seed));
  }
  return outcome.ok() ? 0 : 1;
}

struct Command {
  std::string name;
  std::string summary;
  Result<int> (*run)(const FlagSet&);
  std::vector<FlagSpec> flags;
};

const verify::DifferOptions kDiffer;
const verify::RecoveryDifferOptions kRecovery;

/// Every command with its one flag table, which `motto <command> --help`
/// prints.
const std::vector<Command> kCommands = {
    {"gen-stream", "Writes a synthetic event stream as CSV.", GenStream,
     {kScenario,
      {"events", kInt, "100000", kZero, "stream length"},
      {"seed", kInt, "42", kNone, "generator seed"},
      {"out", kString, "stream.csv", kNone, "output CSV"}}},
    {"gen-workload", "Writes a synthetic CCL workload.", GenWorkload,
     {kScenario,
      {"queries", kInt, "100", kPositive, "number of queries"},
      {"ratio", kDouble, "100", kZero, "basic workload ratio r, in %"},
      {"seed", kInt, "7", kNone, "generator seed"},
      {"nested_level", kInt, "2", kNone, "depth of nested queries"},
      {"out", kString, "workload.ccl", kNone, "output CCL file"}}},
    {"explain", "Prints the sharing graph, optimizer trace and plan.", Explain,
     {kWorkload, kStream, kScenario, kMode, kCalibration,
      {"solver", kString, "bnb", kNone, "bnb|sa"},
      {"shards", kInt, "", kPositive, "show the partition over N shards"},
      {"json", kOptional, "", kNone, "the plan as JSON, to stdout or FILE"},
      {"dot", kOptional, "", kNone, "the plan as DOT, to stdout or FILE"}}},
    {"run", "Plans --workload and replays --stream through the plan.", Run,
     {kWorkload, kStream, kScenario, kMode, kCalibration, kEvalOrder, kShards,
      kThreads, kMetricsOut,
      {"stats", kOptional, "", kNone, "cost per plan node; =json for JSON"},
      {"calibrate", kOptional, "", kNone, "cost per rewrite family; =json"},
      {"trace", kString, "", kNone, "write a Chrome trace JSON to FILE"},
      {"churn", kString, "", kNone, "apply a query add/remove script"}}},
    {"compare", "Replays --stream under each optimizer mode, x NA.", Compare,
     {kWorkload, kStream, kScenario, kCalibration, kEvalOrder, kShards,
      kThreads,
      {"runs", kInt, "3", kPositive, "measured replays per mode"},
      {"reports", kSwitch, "", kNone, "print each mode's per-node report"}}},
    {"verify",
     "Checks fuzzed cases on every path against an oracle.\n"
     "  `motto verify --recovery --help`: the crash-recovery differ.", Verify,
     {{"seed", kInt, "1", kNone, "case i uses seed + i"},
      {"iters", kInt, std::to_string(kDiffer.iterations), kPositive, "cases"},
      {"queries", kInt, std::to_string(kDiffer.fuzz.num_queries), kPositive,
       "queries per case"},
      {"events", kInt, std::to_string(kDiffer.fuzz.num_events), kPositive,
       "events per case"},
      {"threads", kInt, std::to_string(kDiffer.threads), kPositive,
       "threads of the pipelined path"},
      {"shards", kInt, std::to_string(kDiffer.shards), kPositive,
       "shards of the sharded path"},
      {"dump", kString, "", kNone, "write failing cases to DIR"},
      {"workload", kString, "", kNone, "check this one case instead"},
      {"stream", kString, "stream.csv", kNone, "the stream of --workload"}}},
    {"verify --recovery", "Kills and recovers serve on fuzzed cases.",
     VerifyRecovery,
     {{"seed", kInt, "1", kNone, "case i uses seed + i"},
      {"iters", kInt, std::to_string(kRecovery.iterations), kPositive,
       "cases", "MOTTO_RECOVERY_FUZZ_ITERS"},
      {"queries", kInt, std::to_string(kRecovery.fuzz.num_queries),
       kPositive, "queries per case"},
      {"events", kInt, std::to_string(kRecovery.fuzz.num_events), kPositive,
       "events per case"},
      {"shards", kInt, std::to_string(kRecovery.shards), kPositive,
       "shards of the sharded cross-check"},
      {"threads", kInt, std::to_string(kRecovery.threads), kPositive,
       "threads of the sharded cross-check"},
      {"work-dir", kString, "", kNone, "case scratch root; default: temp"}}},
    {"serve", "Ingests wire frames (stdin, or --listen) durably.", Serve,
     {kWorkload, kStream, kScenario, kEvalOrder, kMetricsOut,
      {"listen", kInt, "", kZero, "TCP port to read instead of stdin"},
      {"checkpoint-dir", kString, "", kNone, "checkpoints; empty: not durable"},
      {"checkpoint-interval", kInt, "10000", kZero, "events per checkpoint"},
      {"out-dir", kString, "serve_out", kNone, "per-connection match files"},
      {"ingest-queue", kInt, "4096", kPositive, "ingest queue capacity"},
      {"admission", kString, "block", kNone, "on a full queue: block|shed"},
      {"status-port", kInt, "", kZero, "port of /metrics /statusz /healthz"},
      {"stats-log", kString, "", kNone, "append /statusz lines to FILE"},
      {"snapshot-interval", kDouble, "1", kNone, "seconds; <= 0: no timer"},
      {"snapshot-every", kInt, "0", kZero, "also every N events; 0: off"}}},
    {"top", "Live view of a serve's --status-port or --stats-log.", Top,
     {{"port", kInt, "0", kZero, "a serve --status-port to poll"},
      {"from-log", kString, "", kNone, "a serve --stats-log to read instead"},
      {"interval", kDouble, "2", kPositive, "seconds between frames"},
      {"iterations", kInt, "0", kZero, "stop after N frames; 0: never"},
      {"once", kSwitch, "", kNone, "show one frame"},
      {"no-clear", kSwitch, "", kNone, "do not clear the screen"}}},
    {"wire-encode", "Encodes a CSV stream as serve's wire frames.", WireEncode,
     {{"stream", kString, "stream.csv", kNone, "events CSV to encode"},
      {"out", kString, "stream.bin", kNone, "output file"},
      {"skip", kInt, "0", kZero, "leave out the first N events"},
      {"limit", kInt, "0", kZero, "encode at most N events; 0 = all"},
      {"checkpoint-every", kInt, "0", kZero, "checkpoint request every N"},
      {"no-end", kSwitch, "", kNone, "leave out the end-of-stream frame"}}},
};

int Main(int argc, char** argv) {
  std::string name = argc >= 2 ? argv[1] : "";
  std::vector<std::string> args(argv + std::min(argc, 2), argv + argc);
  // `verify --recovery` is a command of its own, with its own flags.
  auto recovery = std::find(args.begin(), args.end(), "--recovery");
  if (name == "verify" && recovery != args.end()) {
    name = "verify --recovery";
    args.erase(recovery);
  }
  auto command = std::find_if(kCommands.begin(), kCommands.end(),
                              [&](const Command& c) { return c.name == name; });
  if (command == kCommands.end()) {
    if (!name.empty()) {
      std::fprintf(stderr, "unknown command '%s'\n", name.c_str());
    }
    std::string names;
    for (const Command& c : kCommands) {
      if (c.name.find(' ') == std::string::npos) names += "|" + c.name;
    }
    std::fprintf(stderr,
                 "usage: motto <%s> [--flag=value ...]\n"
                 "`motto <command> --help` lists a command's flags.\n",
                 names.substr(1).c_str());
    return 2;
  }
  FlagSet flags("usage: motto " + command->name + " [flags]\n  " +
                    command->summary,
                command->flags);
  Status status = flags.Parse(args);
  if (status.ok() && flags.help_requested()) {
    std::printf("%s", flags.Usage().c_str());
    return 0;
  }
  Result<int> exit_code = status.ok() ? command->run(flags) : status;
  if (exit_code.ok()) return *exit_code;
  std::fprintf(stderr, "error: %s\n", exit_code.status().ToString().c_str());
  return 1;
}

}  // namespace
}  // namespace motto::cli

int main(int argc, char** argv) { return motto::cli::Main(argc, argv); }
