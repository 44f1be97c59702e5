// motto_perfbench: one end-to-end benchmark of `motto run` and
// `motto serve`, driven by perfbench/run.py.
//
//   motto_perfbench gen --dir=D --seed=N [generator flags]
//       writes D/workload.ccl and D/stream.csv
//   motto_perfbench run --dir=D --seconds=S --trace=0|1 [workload flags]
//       measures, checks the outputs, and prints one JSON line last
//
// Every flag is --name=value; see Config in bench.h and workloads.json.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "check.h"
#include "common/parse.h"
#include "engine/executor.h"
#include "phases.h"
#include "trace.h"
#include "workload/io.h"
#include "workload/query_gen.h"

namespace perfbench {

void Die(const std::string& what, const motto::Status& status) {
  Die(what + ": " + status.ToString());
}

void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::fflush(stdout);
  std::exit(2);
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (q == 0.5) {
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2;
  }
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

motto::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return motto::NotFoundError("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

namespace {

using Flags = std::map<std::string, std::string>;

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      Die("expected --name=value, got '" + arg + "'");
    }
    flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  return flags;
}

class FlagReader {
 public:
  explicit FlagReader(Flags flags) : flags_(std::move(flags)) {}

  std::string Str(const std::string& name, std::string fallback) {
    auto it = flags_.find(name);
    if (it == flags_.end()) return fallback;
    std::string value = it->second;
    flags_.erase(it);
    return value;
  }
  double Double(const std::string& name, double fallback) {
    std::string text = Str(name, "");
    if (text.empty()) return fallback;
    return Must(motto::ParseDouble(text), "--" + name);
  }
  int64_t Int(const std::string& name, int64_t fallback) {
    std::string text = Str(name, "");
    if (text.empty()) return fallback;
    return Must(motto::ParseInt64(text), "--" + name);
  }
  /// Every flag must have been consumed: a typo is an error, not a default.
  void Finish() {
    if (!flags_.empty()) Die("unknown flag --" + flags_.begin()->first);
  }

 private:
  Flags flags_;
};

Config ReadConfig(FlagReader* flags) {
  Config c;
  c.workload = flags->Str("workload", "");
  c.dir = flags->Str("dir", "");
  if (c.dir.empty()) Die("--dir is required");
  c.seed = static_cast<uint64_t>(flags->Int("seed", 1));
  c.seconds = flags->Double("seconds", c.seconds);
  c.trace = flags->Int("trace", 0) != 0;
  const std::string scenario = flags->Str("scenario", "stock");
  if (scenario == "stock") {
    c.scenario = motto::Scenario::kStockMarket;
  } else if (scenario == "datacenter") {
    c.scenario = motto::Scenario::kDataCenter;
  } else {
    Die("unknown --scenario " + scenario);
  }
  c.queries = static_cast<int>(flags->Int("queries", c.queries));
  c.ratio = flags->Double("ratio", c.ratio);
  c.query_seed = static_cast<uint64_t>(flags->Int("query_seed", 7));
  c.min_operands = static_cast<int>(flags->Int("min_operands", 0));
  c.max_operands = static_cast<int>(flags->Int("max_operands", 0));
  c.events = flags->Int("events", c.events);
  c.rate = flags->Double("rate", c.rate);
  c.primary = flags->Str("primary", c.primary);
  if (c.primary != "batch" && c.primary != "serve") {
    Die("--primary must be batch or serve");
  }
  c.setup_reps = static_cast<int>(flags->Int("setup_reps", c.setup_reps));
  c.replay_share = flags->Double("replay_share", c.replay_share);
  c.serve_reps = static_cast<int>(flags->Int("serve_reps", c.serve_reps));
  c.open_events =
      static_cast<uint64_t>(flags->Int("open_events", c.open_events));
  c.open_rate = flags->Double("open_rate", c.open_rate);
  if (c.setup_reps < 1 || c.serve_reps < 1 || c.open_rate <= 0) {
    Die("setup_reps, serve_reps and open_rate must be positive");
  }
  return c;
}

int Generate(const Config& config) {
  motto::EventTypeRegistry registry;
  motto::WorkloadOptions workload;
  workload.scenario = config.scenario;
  workload.num_queries = config.queries;
  workload.basic_ratio = config.ratio;
  workload.seed = config.query_seed;
  workload.min_operands = config.min_operands;
  workload.max_operands = config.max_operands;
  motto::GeneratedWorkload queries =
      Must(motto::GenerateWorkload(workload, &registry), "GenerateWorkload");
  motto::StreamOptions stream_options;
  stream_options.scenario = config.scenario;
  stream_options.num_events = config.events;
  stream_options.seed = config.seed;
  stream_options.events_per_second = config.rate;
  motto::EventStream stream = motto::GenerateStream(stream_options, &registry);
  Must(motto::SaveWorkloadFile(config.dir + "/workload.ccl", queries.queries,
                               registry),
       "SaveWorkloadFile");
  Must(motto::SaveStreamCsv(config.dir + "/stream.csv", stream, registry),
       "SaveStreamCsv");
  std::printf("generated %zu queries, %zu events in %s\n",
              queries.queries.size(), stream.size(), config.dir.c_str());
  return 0;
}

std::string Json(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonMetrics(const Metrics& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    if (out.size() > 1) out += ",";
    out += Json(name) + ":{\"value\":" + value +
           ",\"unit\":" + Json(metric.unit) + "}";
  }
  return out + "}";
}

std::string Human(double v) {
  char buf[32];
  if (v >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", v / 1e6);
  } else if (v >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fk", v / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3g", v);
  }
  return buf;
}

/// The traced run's waterfall: from the layer ceilings down to the
/// end-to-end rates, then every span's self-time share of the run.
void PrintWaterfall(const Config& config, const Metrics& e2e,
                    const Metrics& layer, const Tracer& tracer) {
  auto value = [](const Metrics& m, const char* name) {
    auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second.value;
  };
  struct Step {
    const char* name;
    const Metrics* source;
    const char* what;
  };
  const Step steps[] = {
      {"engine.matcher_ceiling_eps", &layer, "heaviest plan node alone"},
      {"exec_eps", &e2e, "Executor::Run, whole plan"},
      {"engine.na_exec_eps", &layer, "unshared plan (Fig 13 baseline)"},
      {"sharded_eps", &e2e, "ShardedExecutor"},
      {"serve.decode_eps", &layer, "FrameDecoder alone"},
      {"serve.apply_eps", &layer, "ServeCore::OnFrame alone"},
      {"serve_eps", &e2e, "TCP ingest to Finish, durable"},
  };
  const double ceiling = value(layer, "engine.matcher_ceiling_eps");
  std::printf("waterfall %s (events/s; gap = ceiling / rate)\n",
              config.workload.c_str());
  for (const Step& step : steps) {
    const double v = value(*step.source, step.name);
    const double base = std::string(step.name).rfind("serve", 0) == 0
                            ? value(layer, "serve.decode_eps")
                            : ceiling;
    std::printf("  %-28s %10s  gap %6.2fx  %s\n", step.name,
                Human(v).c_str(), v > 0 ? base / v : 0.0, step.what);
  }
  const double root = tracer.RootSeconds();
  std::printf("  %-28s %6s %9s %9s %7s %10s\n", "span", "count", "total_s",
              "self_s", "self%", "items/s");
  for (const Tracer::Row& row : tracer.Rows()) {
    std::printf("  %-28s %6d %9.3f %9.3f %6.1f%% %10s\n", row.name.c_str(),
                row.count, row.total, row.self,
                root > 0 ? 100 * row.self / root : 0.0,
                row.items > 0 && row.total > 0
                    ? Human(static_cast<double>(row.items) / row.total).c_str()
                    : "-");
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

int Measure(const Config& config) {
  Tracer tracer;
  if (config.trace) g_tracer = &tracer;
  Metrics e2e;
  Metrics layer;

  BatchResult batch = RunBatch(config, &layer);
  ServeResult served = RunServe(config, &layer);
  if (config.trace) ProbeServeLayers(config, &layer);
  const double rss_mb = PeakRssMb();

  std::vector<double> serve_setup, serve_eps, p50, p99;
  uint64_t offered = 0, failed = 0;
  bool sustained = true;
  for (const ServeRep& rep : served.reps) {
    serve_setup.push_back(rep.setup_s);
    serve_eps.push_back(rep.eps);
    p50.push_back(rep.p50_ms);
    p99.push_back(rep.p99_ms);
    offered += rep.offered;
    failed += rep.offered - rep.ingested;
    sustained = sustained && rep.sustained;
  }
  // An open-loop rate the server could not sustain is not a latency: every
  // frame of that phase counts as having missed it.
  if (!sustained) {
    for (const ServeRep& rep : served.reps) {
      failed += std::min(rep.offered, config.open_events);
    }
    std::printf("serve: offered rate %.0f events/s UNSUSTAINED (generator "
                "lateness or queue depth grew)\n",
                config.open_rate);
  }
  auto print_reps = [](const char* name, const std::vector<double>& reps) {
    std::printf("%-12s", name);
    for (double v : reps) std::printf(" %s", Human(v).c_str());
    std::printf("\n");
  };
  print_reps("setup_s", batch.setup_s);
  print_reps("serve setup", serve_setup);
  print_reps("exec_eps", batch.exec_eps);
  print_reps("sharded_eps", batch.sharded_eps);
  print_reps("serve_eps", serve_eps);
  print_reps("serve p50", p50);
  print_reps("serve p99", p99);
  e2e["setup_s"] = {Median(config.primary == "serve" ? serve_setup
                                                     : batch.setup_s),
                    "s"};
  e2e["exec_eps"] = {Median(batch.exec_eps), "events/s"};
  e2e["sharded_eps"] = {Median(batch.sharded_eps), "events/s"};
  e2e["serve_eps"] = {Median(serve_eps), "events/s"};
  e2e["serve_p50_ms"] = {Median(p50), "ms"};
  e2e["serve_p99_ms"] = {Median(p99), "ms"};
  e2e["peak_rss_mb"] = {rss_mb, "MB"};
  // Only these two are gated end to end. On a shared 4-CPU host the rates
  // and latencies spread by 15-60% across seeds, and their medians moved by
  // up to 39% between sets of runs an hour apart (host speed, thread
  // placement, fsync latency). No allowed bound covers that, so they are
  // reported with the per-layer metrics.
  Metrics gated;
  for (const char* name : {"setup_s", "peak_rss_mb"}) gated[name] = e2e[name];
  for (const char* name : {"exec_eps", "sharded_eps", "serve_eps",
                           "serve_p50_ms", "serve_p99_ms"}) {
    layer[name] = e2e[name];
  }

  // Output check, outside every timed region.
  std::string mismatch;
  double na_eps = 0.0;
  {
    ScopedSpan span("check");
    Inputs in = LoadInputs(config);
    motto::OptimizerOptions na;
    na.mode = motto::OptimizerMode::kNa;
    motto::Optimizer optimizer(in.registry.get(), in.stats, na);
    motto::OptimizeOutcome outcome =
        Must(optimizer.Optimize(in.queries), "NA Optimize");
    MatchPrint na_print;
    {
      motto::Executor executor =
          Must(motto::Executor::Create(outcome.jqp), "NA Executor::Create");
      ScopedSpan run_span("check.na_run");
      const Clock::time_point start = Clock::now();
      motto::RunResult run = Must(executor.Run(in.stream), "NA Run");
      na_eps = static_cast<double>(in.stream.size()) / SecondsSince(start);
      na_print = PrintRun(run);
    }
    motto::Executor reference =
        Must(motto::Executor::Create(served.jqp), "serve plan Create");
    MatchPrint serve_reference =
        PrintRun(Must(reference.Run(in.stream), "serve plan Run"));
    auto compare = [&mismatch](const char* path, const MatchPrint& got,
                               const MatchPrint& want) {
      std::string sink = FirstMismatch(got, want);
      if (!sink.empty() && mismatch.empty()) {
        mismatch = std::string(path) + ":" + sink;
      }
    };
    compare("exec", batch.exec_print, na_print);
    compare("sharded", batch.sharded_print, na_print);
    compare("serve_plan", serve_reference, na_print);
    for (const ServeRep& rep : served.reps) {
      compare("serve", rep.print, serve_reference);
    }
  }

  // Plan-drift guard: every set-up of this run must choose the same plan.
  int drift = 0;
  for (const PlanPrint& plan : batch.plans) drift += !(plan == batch.plans[0]);
  if (drift > 0) {
    std::printf("plan drift: %d of %zu set-ups chose a plan other than %s\n",
                drift, batch.plans.size(),
                batch.plans[0].ToString().c_str());
  }

  if (config.trace) {
    layer["engine.na_exec_eps"] = {na_eps, "events/s"};
    layer["engine.sharing_gain"] = {e2e["exec_eps"].value / na_eps, "ratio"};
    layer["io.load_stream_s"] = {Median(tracer.Durations("io.load_stream")),
                                 "s"};
    layer["ccl.parse_s"] = {Median(tracer.Durations("ccl.parse")), "s"};
    layer["engine.create_s"] = {Median(tracer.Durations("engine.create")),
                                "s"};
    layer["planner.plan_drift"] = {static_cast<double>(drift), "count"};
    PrintWaterfall(config, e2e, layer, tracer);
    Must(tracer.WriteJson(config.dir + "/trace.json"), "write trace");
  }
  std::printf("plan %s; serve plan nodes=%zu; latency samples %llu per rep\n",
              batch.plans[0].ToString().c_str(), served.jqp.nodes.size(),
              static_cast<unsigned long long>(
                  served.reps[0].latency_samples));
  if (!mismatch.empty()) {
    std::printf("OUTPUT MISMATCH in sink %s\n", mismatch.c_str());
  }

  std::string plans = "[";
  for (const PlanPrint& plan : batch.plans) {
    plans += (plans.size() > 1 ? "," : "") + Json(plan.ToString());
  }
  plans += "]";
  std::printf(
      "{\"correct\":%s,\"mismatch\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"sustained\":%s,\"plans\":%s,\"serve_plan_nodes\":%zu,"
      "\"end_to_end\":%s,\"per_layer\":%s}\n",
      mismatch.empty() ? "true" : "false", Json(mismatch).c_str(),
      static_cast<unsigned long long>(offered),
      static_cast<unsigned long long>(failed), sustained ? "true" : "false",
      plans.c_str(), served.jqp.nodes.size(), JsonMetrics(gated).c_str(),
      JsonMetrics(layer).c_str());
  std::fflush(stdout);
  return mismatch.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) Die("usage: motto_perfbench gen|run --name=value ...");
  const std::string verb = argv[1];
  FlagReader flags(ParseFlags(argc, argv));
  Config config = ReadConfig(&flags);
  flags.Finish();
  if (verb == "gen") return Generate(config);
  if (verb == "run") return Measure(config);
  Die("unknown verb " + verb);
}
