// Crash-recovery differential suite for `motto serve` (DESIGN.md §15):
// pinned deterministic kill cases covering every damage kind, then the
// fuzzed (workload, stream, kill-plan) sweep behind `motto verify
// --recovery`. Iteration count scales with MOTTO_RECOVERY_FUZZ_ITERS,
// mirroring MOTTO_FUZZ_ITERS for the plan differ.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "event/stream.h"
#include "test_util.h"
#include "verify/recovery_differ.h"
#include "workload/io.h"

namespace motto {
namespace {

namespace fs = std::filesystem;
using testing::ExpectCleanSweep;
using testing::IterationsFromEnv;
using testing::MakeStream;
using verify::CheckRecoveryCase;
using verify::RecoveryCaseSpec;
using verify::RecoveryDifferOptions;
using verify::RecoveryKill;
using verify::RunRecoveryDiffer;

constexpr char kWorkload[] =
    "q0: SELECT * FROM s MATCHING [30 us : SEQ(A, B, C)]\n"
    "q1: SELECT * FROM s MATCHING [25 us : CONJ(A & D)]\n"
    "q2: SELECT * FROM s MATCHING [20 us : SEQ(A, B, NEG(E))]\n";

EventStream PinnedStream(EventTypeRegistry* registry) {
  std::vector<std::pair<std::string, Timestamp>> events;
  const char* cycle[] = {"A", "B", "D", "A", "C", "E", "B", "A", "D", "C"};
  Timestamp ts = 0;
  for (int round = 0; round < 10; ++round) {
    for (const char* type : cycle) {
      events.emplace_back(type, ts);
      ts += (ts % 4) + 1;
    }
  }
  return MakeStream(registry, std::move(events));
}

class ServeRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("motto-serve-recovery-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// One pinned case: fixed workload/stream, caller-chosen kill plan.
  void CheckPinned(std::vector<RecoveryKill> kills, EvalOrderMode order,
                   uint64_t interval) {
    EventTypeRegistry registry;
    auto queries = ParseWorkloadText(kWorkload, &registry);
    ASSERT_TRUE(queries.ok()) << queries.status();
    ASSERT_EQ(queries->size(), 3u);
    EventStream stream = PinnedStream(&registry);
    RecoveryCaseSpec spec;
    spec.kills = std::move(kills);
    spec.eval_order = order;
    spec.checkpoint_interval = interval;
    spec.frame_seed = 0xFEEDBEEF;
    spec.case_dir = dir_;
    auto report = CheckRecoveryCase(*queries, stream, &registry, spec);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(report->ok()) << report->ToString();
  }

  std::string dir_;
};

TEST_F(ServeRecoveryTest, PlainKillMidStream) {
  CheckPinned({{.after_events = 37, .kind = RecoveryKill::Kind::kPlain}},
              EvalOrderMode::kArrival, /*interval=*/8);
}

TEST_F(ServeRecoveryTest, PlainKillBeforeFirstCheckpoint) {
  // Killed before any snapshot exists: recovery starts from scratch and
  // must still converge on the batch multiset.
  CheckPinned({{.after_events = 3, .kind = RecoveryKill::Kind::kPlain}},
              EvalOrderMode::kArrival, /*interval=*/50);
}

TEST_F(ServeRecoveryTest, TornCheckpointFallsBackToPreviousSnapshot) {
  CheckPinned(
      {{.after_events = 41, .kind = RecoveryKill::Kind::kTornCheckpoint}},
      EvalOrderMode::kArrival, /*interval=*/7);
}

TEST_F(ServeRecoveryTest, TornOutputTailIsRepaired) {
  CheckPinned({{.after_events = 53, .kind = RecoveryKill::Kind::kTornOutput}},
              EvalOrderMode::kSelectivity, /*interval=*/9);
}

TEST_F(ServeRecoveryTest, MidCheckpointFaultReleasesOutboxOnRecovery) {
  // Durable snapshot, dead before the outbox release: the recovered run
  // must re-emit exactly the unreleased matches, no more, no less.
  CheckPinned(
      {{.after_events = 29, .kind = RecoveryKill::Kind::kMidCheckpoint}},
      EvalOrderMode::kArrival, /*interval=*/6);
}

TEST_F(ServeRecoveryTest, DoubleKillWithMixedDamage) {
  // Second kill lands during the catch-up replay of the first recovery.
  CheckPinned(
      {{.after_events = 23, .kind = RecoveryKill::Kind::kTornCheckpoint},
       {.after_events = 61, .kind = RecoveryKill::Kind::kMidCheckpoint}},
      EvalOrderMode::kSelectivity, /*interval=*/5);
}

// The fuzz sweeps have no skip bound: the match budget skips 5 of the 12
// cases at seed 1 and 4 of the 8 at seed 1000.
TEST(ServeRecoveryFuzzTest, FuzzedKillPlansNeverDiverge) {
  RecoveryDifferOptions options;
  options.seed = 1;
  options.iterations = IterationsFromEnv("MOTTO_RECOVERY_FUZZ_ITERS", 12);
  options.fuzz.num_events = 120;
  auto outcome = RunRecoveryDiffer(options);
  ExpectCleanSweep(outcome, /*bound_skips=*/false);
  EXPECT_TRUE(outcome.ok() && !outcome->kills.empty());
}

TEST(ServeRecoveryFuzzTest, SecondSeedBand) {
  RecoveryDifferOptions options;
  options.seed = 1000;
  options.iterations = IterationsFromEnv("MOTTO_RECOVERY_FUZZ_ITERS", 8);
  options.fuzz.num_events = 100;
  options.fuzz.num_event_types = 4;
  ExpectCleanSweep(RunRecoveryDiffer(options), /*bound_skips=*/false);
}

}  // namespace
}  // namespace motto
