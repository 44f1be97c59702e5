// Churn migration-equivalence fuzzing: random workloads + streams with
// mid-stream add/remove scripts, replayed through the live churn path
// (incremental re-optimization + state handoff) in both evaluation-order
// modes and diffed per query against a from-scratch oracle — each query
// compiled alone over exactly its live window's slice, cross-checked
// single-threaded vs sharded. See src/verify/churn_differ.h.
//
// MOTTO_FUZZ_ITERS scales the per-seed case count (default 12 here; the
// nightly sanitizer sweep raises it via tools/check_build.sh).
#include <gtest/gtest.h>

#include "test_util.h"
#include "verify/churn_differ.h"

namespace motto {
namespace {

using testing::IterationsFromEnv;

void ExpectClean(verify::ChurnDifferOptions options) {
  auto outcome = verify::RunChurnDiffer(options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  for (const std::string& failure : outcome->failures) {
    ADD_FAILURE() << failure;
  }
  // The sweep must actually exercise migration: if (almost) every fuzzed
  // stream was too short to schedule a script the run proves nothing.
  EXPECT_LE(outcome->skipped, outcome->iterations / 4);
}

TEST(ChurnStressTest, DefaultShapes) {
  verify::ChurnDifferOptions options;
  options.seed = 1;
  options.iterations = IterationsFromEnv("MOTTO_FUZZ_ITERS", 12);
  ExpectClean(options);
}

TEST(ChurnStressTest, ChurnHeavy) {
  // More commands than initial queries: the workload is mostly replaced
  // mid-stream, so nearly every epoch boundary migrates live state.
  verify::ChurnDifferOptions options;
  options.seed = 70000;
  options.iterations = IterationsFromEnv("MOTTO_FUZZ_ITERS", 10);
  options.fuzz.num_queries = 2;
  options.added_queries = 3;
  options.removals = 3;
  ExpectClean(options);
}

TEST(ChurnStressTest, NegationAndCollisions) {
  // Deferred (negation-sealed) matches must flush correctly at removal
  // boundaries, and timestamp collisions land events exactly on command
  // timestamps — the add/remove visibility edge.
  verify::ChurnDifferOptions options;
  options.seed = 910000;
  options.iterations = IterationsFromEnv("MOTTO_FUZZ_ITERS", 10);
  options.fuzz.negation_prob = 0.8;
  options.fuzz.ts_collision_prob = 0.5;
  options.fuzz.num_events = 30;
  ExpectClean(options);
}

TEST(ChurnStressTest, RemoveOnly) {
  // Prune-only path: no adds, so every re-plan keeps the incumbent recipes
  // and migration is pure state carry-over for the survivors.
  verify::ChurnDifferOptions options;
  options.seed = 3300000;
  options.iterations = IterationsFromEnv("MOTTO_FUZZ_ITERS", 8);
  options.fuzz.num_queries = 4;
  options.added_queries = 0;
  options.removals = 2;
  ExpectClean(options);
}

}  // namespace
}  // namespace motto
