// Differential verification: fuzzed workloads checked across all execution
// paths — brute-force oracle, per-query NFA matcher plans, unshared
// multi-query plan, MOTTO-optimized JQP (exact branch-and-bound and
// simulated-annealing solves), and the pipelined parallel executor. Any
// disagreement is shrunk and reported with a repro command.
//
// MOTTO_FUZZ_ITERS scales the per-seed case count (default 40 here; the
// nightly sanitizer sweep raises it via tools/check_build.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "test_util.h"
#include "verify/differ.h"
#include "workload/io.h"

namespace motto {
namespace {

using testing::ExpectCleanSweep;
using testing::IterationsFromEnv;

TEST(DifferentialTest, DefaultShapes) {
  verify::DifferOptions options;
  options.seed = 1;
  options.iterations = IterationsFromEnv("MOTTO_FUZZ_ITERS", 40);
  ExpectCleanSweep(verify::RunDiffer(options));
}

TEST(DifferentialTest, DeepNesting) {
  verify::DifferOptions options;
  options.seed = 500000;
  options.iterations = IterationsFromEnv("MOTTO_FUZZ_ITERS", 40);
  options.fuzz.max_depth = 3;
  options.fuzz.nested_prob = 0.7;
  options.fuzz.num_events = 24;
  ExpectCleanSweep(verify::RunDiffer(options));
}

TEST(DifferentialTest, TinyAlphabetManyCollisions) {
  // Two types and frequent equal timestamps: maximal operand overlap, the
  // sharing rewrites fire constantly, SEQ's strict order guard is stressed.
  verify::DifferOptions options;
  options.seed = 900000;
  options.iterations = IterationsFromEnv("MOTTO_FUZZ_ITERS", 40);
  options.fuzz.num_event_types = 2;
  options.fuzz.ts_collision_prob = 0.45;
  options.fuzz.negation_prob = 0.5;
  ExpectCleanSweep(verify::RunDiffer(options));
}

TEST(DifferentialTest, SingleQueryWideWindows) {
  // One query per case isolates matcher-vs-oracle semantics (no sharing),
  // with windows usually larger than the whole stream.
  verify::DifferOptions options;
  options.seed = 1300000;
  options.iterations = IterationsFromEnv("MOTTO_FUZZ_ITERS", 40);
  options.fuzz.num_queries = 1;
  options.fuzz.num_events = 28;
  options.fuzz.max_gap = 3;
  ExpectCleanSweep(verify::RunDiffer(options));
}

TEST(DifferentialTest, ShrinkCaseMinimizesEveryPartOfTheCase) {
  // A fake check that fails while the case holds query q1, an E2 event,
  // the add command of c0 and a kill: the shrinker must strip everything
  // else, whatever the kind.
  EventTypeRegistry registry;
  verify::QueryFuzzer fuzzer(&registry, verify::FuzzOptions{}, 11);
  verify::DiffCase c{fuzzer.Next(), {}, {}};
  const EventTypeId e2 = registry.Find("E2");
  ASSERT_EQ(c.queries.size(), 3u);
  ASSERT_EQ(c.stream.size(), 36u);
  ASSERT_GT(std::count_if(c.stream.begin(), c.stream.end(),
                          [&](const Event& e) { return e.type() == e2; }),
            1);
  c.script.commands = {{5, true, "c0", fuzzer.NextQuery("c0")},
                       {9, true, "c1", fuzzer.NextQuery("c1")},
                       {20, false, "q2", {}},
                       {30, false, "c1", {}}};
  c.recovery.emplace().kills = {
      {.after_events = 6, .kind = verify::RecoveryKill::Kind::kPlain},
      {.after_events = 20, .kind = verify::RecoveryKill::Kind::kTornOutput}};
  auto check = [&](const verify::DiffCase& d,
                   EventTypeRegistry*) -> Result<verify::CaseReport> {
    verify::CaseReport report;
    const bool fails =
        std::any_of(d.queries.begin(), d.queries.end(),
                    [](const Query& q) { return q.name == "q1"; }) &&
        std::any_of(d.stream.begin(), d.stream.end(),
                    [&](const Event& e) { return e.type() == e2; }) &&
        std::any_of(d.script.commands.begin(), d.script.commands.end(),
                    [](const ChurnCommand& cmd) {
                      return cmd.add && cmd.name == "c0";
                    }) &&
        !d.recovery->kills.empty();
    if (fails) report.Diff("fake", "q1", {}, {"x"});
    return report;
  };
  verify::ShrinkCase(&c, &registry, check);
  ASSERT_EQ(c.queries.size(), 1u);
  EXPECT_EQ(c.queries[0].name, "q1");
  ASSERT_EQ(c.stream.size(), 1u);
  EXPECT_EQ(c.stream[0].type(), e2);
  ASSERT_EQ(c.script.commands.size(), 1u);
  EXPECT_EQ(c.script.commands[0].name, "c0");
  EXPECT_EQ(c.recovery->kills.size(), 1u);
}

/// Replays one pinned (workload, stream) pair through CheckCase.
void ExpectCaseClean(const std::string& workload_text,
                     const std::string& stream_csv) {
  EventTypeRegistry registry;
  auto queries = ParseWorkloadText(workload_text, &registry);
  ASSERT_TRUE(queries.ok()) << queries.status();
  auto stream = ParseStreamCsv(stream_csv, &registry);
  ASSERT_TRUE(stream.ok()) << stream.status();
  verify::DifferOptions options;
  auto report = verify::CheckCase(*queries, *stream, &registry, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->ok()) << report->ToString();
}

// Pinned regressions: hand-reduced shapes where the execution paths have
// historically been most at risk of diverging. Each pins the whole
// five-path comparison, not a single expected value.
TEST(DifferentialTest, PinnedSharedEventAcrossChannels) {
  // A raw operand and a DISJ pass-through of the same type: one physical
  // event arrives twice (two channels) and fills both operands.
  ExpectCaseClean(
      "q1: SELECT * FROM s MATCHING [20 us : CONJ(E0 & DISJ(E0 | E1))]\n"
      "q2: SELECT * FROM s MATCHING [20 us : DISJ(E0 | E1)]\n",
      "type,ts_us,value,aux\n"
      "E0,1,50,10\n"
      "E0,3,60,20\n"
      "E1,3,70,30\n");
}

TEST(DifferentialTest, PinnedNegationAtWindowBoundary) {
  // Negated events exactly at min_begin and at min_begin + window (both
  // kill, inclusive interval), plus one just outside (no kill).
  ExpectCaseClean(
      "q1: SELECT * FROM s MATCHING [10 us : SEQ(E0, E1, NEG(E2))]\n",
      "type,ts_us,value,aux\n"
      "E2,5,0,0\n"
      "E0,5,0,0\n"
      "E1,7,0,0\n"
      "E0,20,0,0\n"
      "E1,24,0,0\n"
      "E2,31,0,0\n"
      "E0,40,0,0\n"
      "E1,44,0,0\n"
      "E2,51,0,0\n");
}

TEST(DifferentialTest, PinnedDuplicateTypeMultiplicity) {
  // CONJ over duplicate types shared with another query's SEQ: the shared
  // plan must preserve per-assignment multiplicity (2 matches per pair).
  ExpectCaseClean(
      "q1: SELECT * FROM s MATCHING [15 us : CONJ(E0 & E0)]\n"
      "q2: SELECT * FROM s MATCHING [15 us : SEQ(E0, E0)]\n",
      "type,ts_us,value,aux\n"
      "E0,1,10,1\n"
      "E0,4,20,2\n"
      "E0,4,30,3\n"
      "E0,9,40,4\n");
}

TEST(DifferentialTest, PinnedCompositeIntoDuplicateTypeConj) {
  // Fuzz-found (case seed 2038): sharing CONJ(E1 & E2) as a composite
  // operand of a CONJ with a *duplicate* E1 slot let one physical E1 fill
  // both the composite and the raw slot — the unshared plan keeps both E1
  // slots on one channel and requires two distinct events. The rewriter now
  // refuses the composite-operand edge unless the beneficiary's operand
  // types are all-distinct primitives.
  ExpectCaseClean(
      "q1: SELECT * FROM stream MATCHING [3 us : CONJ(E2 & DISJ(E3 | "
      "CONJ(E1[value < 30] & E1 & E2) | CONJ(E1[aux >= 243] & E1 & E3)) & "
      "E1)]\n",
      "type,ts_us,value,aux\n"
      "E1,100,0,500\n"
      "E2,100,0,0\n");
}

TEST(DifferentialTest, PinnedIdenticalNestedChildren) {
  // Identical operator children collapse onto one producer channel, so a
  // single event cannot fill both operands.
  ExpectCaseClean(
      "q1: SELECT * FROM s MATCHING [25 us : CONJ(DISJ(E0 | E1) & "
      "DISJ(E0 | E1))]\n",
      "type,ts_us,value,aux\n"
      "E0,2,1,1\n"
      "E1,6,2,2\n");
}

}  // namespace
}  // namespace motto
