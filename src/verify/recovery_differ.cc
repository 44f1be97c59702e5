#include "verify/recovery_differ.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <utility>

#include "common/rng.h"
#include "engine/executor.h"
#include "engine/sharded_executor.h"
#include "event/event.h"
#include "motto/optimizer.h"
#include "serve/checkpoint.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "verify/oracle.h"

namespace motto::verify {
namespace fs = std::filesystem;
namespace {

using serve::Frame;
using serve::FrameType;
using serve::ServeCore;
using serve::ServeOptions;

/// One frame of the generated connection plus the number of event frames
/// that precede it — the resume arithmetic: after recovering at ingested
/// count R, event frames with ordinal > R and control frames with
/// ordinal >= R are re-fed (re-feeding an already-applied watermark, flush
/// or checkpoint is harmless by design; re-feeding an event is not).
struct GenFrame {
  Frame frame;
  uint64_t ordinal = 0;
};

/// Renders the fuzzed stream as a frame sequence with randomized control
/// frames: registrations up front, then events interleaved with watermarks
/// (never ahead of event time), flushes, and explicit checkpoint requests.
/// No kEnd frame — the feed loop calls Finish() when it runs off the end.
std::vector<GenFrame> GenerateFrames(const EventStream& stream,
                                     const EventTypeRegistry& registry,
                                     uint64_t frame_seed) {
  Rng rng(frame_seed);
  std::vector<GenFrame> frames;
  for (EventTypeId id = 0; id < registry.size(); ++id) {
    Frame reg;
    reg.type = FrameType::kRegisterType;
    reg.wire_type = static_cast<uint32_t>(id);
    reg.is_primitive = registry.IsPrimitive(id);
    reg.name = registry.NameOf(id);
    frames.push_back({std::move(reg), 0});
  }
  uint64_t ordinal = 0;
  for (const Event& event : stream) {
    Frame ev;
    ev.type = FrameType::kEvent;
    ev.wire_type = static_cast<uint32_t>(event.type());
    ev.ts = event.begin();
    ev.payload = event.payload();
    frames.push_back({std::move(ev), ++ordinal});
    for (const auto& [p, type] : {std::pair{0.12, FrameType::kWatermark},
                                  std::pair{0.05, FrameType::kFlush},
                                  std::pair{0.04, FrameType::kCheckpoint}}) {
      if (!rng.Bernoulli(p)) continue;
      Frame control;
      control.type = type;
      if (type == FrameType::kWatermark) control.ts = event.begin();
      frames.push_back({std::move(control), ordinal});
    }
  }
  return frames;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Parses a per-connection match file into per-sink fingerprint multisets.
/// Only complete (newline-terminated) lines count — a torn tail is exactly
/// what recovery is allowed to discard.
std::map<std::string, MatchSet> ReadOutputSets(const std::string& path) {
  std::map<std::string, MatchSet> sets;
  const std::string content = ReadFileBytes(path);
  size_t pos = 0;
  while (true) {
    size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) break;  // Torn tail (or end of file).
    std::string_view line(content.data() + pos, eol - pos);
    pos = eol + 1;
    size_t t1 = line.find('\t');
    size_t t3 = line.rfind('\t');
    if (t1 == std::string_view::npos || t3 == std::string_view::npos ||
        t3 <= t1) {
      continue;
    }
    sets[std::string(line.substr(0, t1))].insert(
        std::string(line.substr(t3 + 1)));
  }
  return sets;
}

MatchSet FlattenSets(const std::map<std::string, MatchSet>& sets) {
  MatchSet all;
  for (const auto& [sink, set] : sets) {
    for (const std::string& fp : set) all.insert(sink + "\t" + fp);
  }
  return all;
}

/// Latest parseable snapshot in `dir`, or nullopt. Used by the disk-damage
/// mutations to find what recovery will actually anchor on.
std::optional<serve::LoadedCheckpoint> LatestValid(const std::string& dir) {
  Result<serve::LoadedCheckpoint> loaded = serve::LoadLatestCheckpoint(dir);
  if (!loaded.ok()) return std::nullopt;
  return *std::move(loaded);
}

/// Byte offset just past the first `lines` complete lines of `content`.
size_t OffsetOfLine(const std::string& content, uint64_t lines) {
  size_t pos = 0;
  for (uint64_t i = 0; i < lines; ++i) {
    size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) return content.size();
    pos = eol + 1;
  }
  return pos;
}

void WriteFileBytes(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Forges a torn snapshot *newer* than the latest valid one: recovery must
/// skip it (with a warning) and fall back. With no valid snapshot at all, a
/// garbage file still must not be mistaken for one.
void TearCheckpoint(const std::string& ckpt_dir, Rng* rng) {
  std::optional<serve::LoadedCheckpoint> latest = LatestValid(ckpt_dir);
  uint64_t forged_seq = 0;
  std::string bytes = "MCKPgarbage-not-a-snapshot";
  if (latest.has_value()) {
    forged_seq = latest->state.seq + 1;
    std::string real = ReadFileBytes(latest->path);
    if (real.size() > 8) {
      // A truncated copy of a real snapshot: right magic, torn payload.
      bytes = real.substr(
          0, static_cast<size_t>(rng->Uniform(
                 8, static_cast<int64_t>(real.size()) - 1)));
    }
  }
  std::error_code ec;
  fs::create_directories(ckpt_dir, ec);
  WriteFileBytes(
      (fs::path(ckpt_dir) / serve::CheckpointFileName(forged_seq)).string(),
      bytes);
}

/// Tears the output file's tail the way a kill mid-append could: only bytes
/// past the latest valid snapshot's released-line horizon are fair game —
/// everything before it was durable before that snapshot existed, and
/// recovery re-reads those lines from the file itself.
void TearOutput(const std::string& ckpt_dir, const std::string& out_path,
                Rng* rng) {
  std::string content = ReadFileBytes(out_path);
  if (content.empty()) return;
  uint64_t protected_lines = 0;
  std::optional<serve::LoadedCheckpoint> latest = LatestValid(ckpt_dir);
  if (latest.has_value()) protected_lines = latest->state.released_lines;
  size_t lo = OffsetOfLine(content, protected_lines);
  if (lo >= content.size()) return;  // Nothing tearable past the horizon.
  size_t cut = static_cast<size_t>(
      rng->Uniform(static_cast<int64_t>(lo),
                   static_cast<int64_t>(content.size()) - 1));
  WriteFileBytes(out_path, std::string_view(content).substr(0, cut));
}

/// Feeds `frames` into a fresh core from its recovered resume offset,
/// simulating `kill` (if any). Plain kills abandon the core at an exact
/// frame boundary; mid-checkpoint kills arm the fault hook at the threshold
/// and abandon when the next checkpoint dies between rename and release.
/// Returns true once the stream ran to the end and Finish() succeeded,
/// false when the kill fired; a non-fault engine error aborts the case.
Result<bool> FeedUntil(ServeCore* core, const std::vector<GenFrame>& frames,
                       const RecoveryKill* kill) {
  const uint64_t resume = core->ingested();
  bool armed = false;
  auto fault_tripped = [](const Status& s) {
    return s.message().find("fault injection") != std::string::npos;
  };
  if (kill != nullptr && kill->kind == RecoveryKill::Kind::kMidCheckpoint &&
      core->ingested() >= kill->after_events) {
    core->FailNextReleaseForTest();
    armed = true;
  }
  for (const GenFrame& gen : frames) {
    const bool is_event = gen.frame.type == FrameType::kEvent;
    // Registrations always replay: a reconnecting client re-sends its type
    // table (wire-encode --skip does the same), and the wire-id map lives
    // with the connection, not the snapshot.
    if (gen.frame.type != FrameType::kRegisterType &&
        (is_event ? gen.ordinal <= resume : gen.ordinal < resume)) {
      continue;
    }
    Result<bool> applied = core->OnFrame(gen.frame);
    if (!applied.ok()) {
      if (armed && fault_tripped(applied.status())) return false;
      return applied.status();
    }
    if (kill != nullptr && core->ingested() >= kill->after_events) {
      if (kill->kind == RecoveryKill::Kind::kMidCheckpoint) {
        if (!armed) {
          core->FailNextReleaseForTest();
          armed = true;
        }
      } else if (is_event) {
        return false;  // SIGKILL at this frame boundary.
      }
    }
  }
  Result<RunResult> finished = core->Finish();
  if (!finished.ok()) {
    // A tripped fault means the core died inside the final checkpoint.
    if (armed && fault_tripped(finished.status())) return false;
    return finished.status();
  }
  return true;
}

ServeOptions MakeServeOptions(const RecoveryCaseSpec& spec,
                              const std::string& ckpt_dir,
                              const std::string& out_dir) {
  ServeOptions options;
  options.checkpoint_dir = ckpt_dir;
  options.checkpoint_interval = spec.checkpoint_interval;
  options.out_dir = out_dir;
  options.eval_order = spec.eval_order;
  options.optimizer.mode = OptimizerMode::kMotto;
  return options;
}

}  // namespace

Result<CaseReport> CheckRecoveryCase(const std::vector<Query>& queries,
                                     const EventStream& stream,
                                     EventTypeRegistry* registry,
                                     const RecoveryCaseSpec& spec) {
  CaseReport report;
  StreamStats stats = ComputeStats(stream);
  // Budget screen before any engine work: fuzzed workloads occasionally
  // explode combinatorially (broad DISJ/CONJ fanouts over wide windows),
  // and the blow-up hits the batch reference run itself — minutes of CPU
  // and gigabytes of partials before output ever gets compared. The
  // exponential-but-budgeted oracle detects that cheaply; kOutOfRange
  // bubbles up and the fuzz loop counts the case as skipped, exactly like
  // the plan differ.
  for (const Query& query : queries) {
    MOTTO_RETURN_IF_ERROR(OracleMatches(query, stream).status());
  }
  const std::vector<GenFrame> frames =
      GenerateFrames(stream, *registry, spec.frame_seed);

  // Reference 1: the batch Executor over the shared MOTTO plan. A registry
  // copy keeps the caller's registry pristine (the optimizer registers
  // composite types).
  OptimizerOptions optimizer_options;
  optimizer_options.mode = OptimizerMode::kMotto;
  EventTypeRegistry batch_registry = *registry;
  Optimizer optimizer(&batch_registry, stats, optimizer_options);
  MOTTO_ASSIGN_OR_RETURN(OptimizeOutcome outcome, optimizer.Optimize(queries));
  Jqp sharded_jqp = outcome.jqp;
  ExecutorOptions exec_options;
  exec_options.eval_order = spec.eval_order;
  MOTTO_ASSIGN_OR_RETURN(Executor executor,
                         Executor::Create(std::move(outcome.jqp)));
  MOTTO_ASSIGN_OR_RETURN(RunResult batch, executor.Run(stream, exec_options));
  std::map<std::string, MatchSet> oracle = SinkMatches(batch);
  // A within-budget case can still emit too many matches to replay through
  // 4+ server incarnations for no extra coverage; it is skipped as well.
  size_t total_matches = 0;
  for (const auto& [sink, set] : oracle) total_matches += set.size();
  if (total_matches > 50000) {
    return OutOfRangeError("recovery: match budget exceeded (" +
                           std::to_string(total_matches) + " matches)");
  }

  // Reference 2: the sharded executor on the same plan.
  MOTTO_ASSIGN_OR_RETURN(
      ShardedExecutor sharded,
      ShardedExecutor::Create(std::move(sharded_jqp), spec.shards,
                              spec.threads));
  MOTTO_ASSIGN_OR_RETURN(RunResult sharded_run, sharded.Run(stream));
  std::map<std::string, MatchSet> sharded_sets = SinkMatches(sharded_run);
  for (const auto& [sink, set] : oracle) {
    report.Diff("sharded", sink, set, sharded_sets[sink]);
  }

  const fs::path case_dir(spec.case_dir);
  std::error_code ec;
  fs::remove_all(case_dir, ec);
  fs::create_directories(case_dir, ec);
  if (ec) {
    return InternalError("create case dir " + spec.case_dir + ": " +
                         ec.message());
  }

  // Reference 3: an uninterrupted server over the identical frame sequence.
  {
    const std::string ckpt = (case_dir / "ref-ckpt").string();
    const std::string out = (case_dir / "ref-out").string();
    MOTTO_ASSIGN_OR_RETURN(
        std::unique_ptr<ServeCore> core,
        ServeCore::Create(queries, *registry, stats,
                          MakeServeOptions(spec, ckpt, out)));
    MOTTO_RETURN_IF_ERROR(FeedUntil(core.get(), frames, nullptr).status());
    std::map<std::string, MatchSet> clean =
        ReadOutputSets((fs::path(out) / "conn0.matches").string());
    for (const auto& [sink, set] : oracle) {
      report.Diff("serve-clean", sink, set, clean[sink]);
    }
  }

  // The run under test: kill / damage / recover per the plan, then run the
  // remainder to completion and demand the batch multisets exactly.
  const std::string ckpt = (case_dir / "ckpt").string();
  const std::string out = (case_dir / "out").string();
  const std::string out_file = (fs::path(out) / "conn0.matches").string();
  Rng damage_rng(spec.frame_seed * 0x9e3779b97f4a7c15ull + 7);
  std::vector<MatchSet> durable_after_kill;
  size_t next_kill = 0;
  bool expect_torn_warning = false;
  for (int run = 0;; ++run) {
    if (run > static_cast<int>(spec.kills.size()) + 2) {
      return InternalError("recovery case failed to make progress");
    }
    MOTTO_ASSIGN_OR_RETURN(
        std::unique_ptr<ServeCore> core,
        ServeCore::Create(queries, *registry, stats,
                          MakeServeOptions(spec, ckpt, out)));
    const std::vector<std::string>& warnings = core->recovery().warnings;
    if (expect_torn_warning &&
        std::none_of(warnings.begin(), warnings.end(), [](const auto& w) {
          return w.find("skipping") != std::string::npos;
        })) {
      report.mismatches.push_back(
          {"(recovery)", "torn-checkpoint-warning", 0, 0, {}, {}});
    }
    expect_torn_warning = false;
    const RecoveryKill* kill =
        next_kill < spec.kills.size() ? &spec.kills[next_kill] : nullptr;
    MOTTO_ASSIGN_OR_RETURN(bool finished, FeedUntil(core.get(), frames, kill));
    if (finished) break;
    // Killed: abandon the core, then apply this kill's disk damage before
    // the next incarnation recovers.
    core.reset();
    switch (kill->kind) {
      case RecoveryKill::Kind::kPlain:
      case RecoveryKill::Kind::kMidCheckpoint:
        break;
      case RecoveryKill::Kind::kTornCheckpoint:
        TearCheckpoint(ckpt, &damage_rng);
        expect_torn_warning = true;
        break;
      case RecoveryKill::Kind::kTornOutput:
        TearOutput(ckpt, out_file, &damage_rng);
        break;
    }
    durable_after_kill.push_back(FlattenSets(ReadOutputSets(out_file)));
    ++next_kill;
  }

  std::map<std::string, MatchSet> recovered = ReadOutputSets(out_file);
  for (const auto& [sink, set] : oracle) {
    report.Diff("serve-recovered", sink, set, recovered[sink]);
  }
  for (const auto& [sink, set] : recovered) {
    if (oracle.find(sink) == oracle.end()) {
      report.Diff("serve-recovered", sink, MatchSet{}, set);
    }
  }

  // Output-commit discipline: everything durable at any kill must survive
  // into the final output (released means released, even across damage).
  MatchSet final_all = FlattenSets(recovered);
  for (size_t k = 0; k < durable_after_kill.size(); ++k) {
    if (std::includes(final_all.begin(), final_all.end(),
                      durable_after_kill[k].begin(),
                      durable_after_kill[k].end())) {
      continue;
    }
    Mismatch m;
    m.query = "(kill " + std::to_string(k) + ")";
    m.path = "durability";
    m.oracle_count = durable_after_kill[k].size();
    m.path_count = final_all.size();
    std::set_difference(durable_after_kill[k].begin(),
                        durable_after_kill[k].end(), final_all.begin(),
                        final_all.end(), std::back_inserter(m.missing));
    if (m.missing.size() > 4) m.missing.resize(4);
    report.mismatches.push_back(std::move(m));
  }

  fs::remove_all(case_dir, ec);
  return report;
}

Result<DiffOutcome> RunRecoveryDiffer(const RecoveryDifferOptions& options) {
  const fs::path work_root =
      options.work_dir.empty()
          ? fs::temp_directory_path() /
                ("motto-recovery-" + std::to_string(::getpid()) + "-" +
                 std::to_string(options.seed))
          : fs::path(options.work_dir);
  auto derive = [&](uint64_t case_seed, int index, QueryFuzzer*,
                    DiffCase* c) {
    if (c->stream.size() < 8) return false;
    RecoveryCaseSpec spec;
    spec.eval_order = (index % 2 == 0) ? EvalOrderMode::kArrival
                                       : EvalOrderMode::kSelectivity;
    spec.shards = options.shards;
    spec.threads = options.threads;
    spec.frame_seed = case_seed * 0x2545F4914F6CDD1Dull + 11;
    spec.case_dir =
        (work_root / ("case-" + std::to_string(case_seed))).string();
    Rng rng(case_seed * 0x9e3779b97f4a7c15ull + 3);
    spec.checkpoint_interval = static_cast<uint64_t>(rng.Uniform(4, 40));

    auto roll_kind = [&rng] {
      double r = rng.NextDouble();
      if (r < 0.45) return RecoveryKill::Kind::kPlain;
      if (r < 0.65) return RecoveryKill::Kind::kTornCheckpoint;
      if (r < 0.80) return RecoveryKill::Kind::kTornOutput;
      return RecoveryKill::Kind::kMidCheckpoint;
    };
    const int64_t n = static_cast<int64_t>(c->stream.size());
    RecoveryKill first;
    first.after_events = static_cast<uint64_t>(rng.Uniform(1, n));
    first.kind = roll_kind();
    spec.kills.push_back(first);
    if (rng.Bernoulli(0.35)) {
      RecoveryKill second;
      second.after_events = static_cast<uint64_t>(
          rng.Uniform(static_cast<int64_t>(first.after_events), n));
      second.kind = roll_kind();
      spec.kills.push_back(second);
    }
    c->recovery = std::move(spec);
    return true;
  };
  Result<DiffOutcome> outcome = RunCases(
      options.seed, options.iterations, options.fuzz, derive,
      [](const DiffCase& c, EventTypeRegistry* registry) {
        return CheckRecoveryCase(c.queries, c.stream, registry, *c.recovery);
      });
  std::error_code ec;
  fs::remove_all(work_root, ec);
  if (outcome.ok()) {
    for (Failure& failure : outcome->failures) {
      // The eval order follows the case's index parity, so the replay
      // starts an even number of cases after the root seed.
      const uint64_t odd = (failure.case_seed - options.seed) % 2;
      failure.repro = "motto verify --recovery --seed=" +
                      std::to_string(failure.case_seed - odd) +
                      " --iters=" + std::to_string(1 + odd) + "\n";
    }
  }
  return outcome;
}

}  // namespace motto::verify
