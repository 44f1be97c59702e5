// Parse -> print -> parse round-trip fuzzing for the CCL front end: every
// generated query must print to text that re-parses to the identical tree
// (and identical window), both through the pattern printer and through the
// whole workload-file format. 10k queries by default; MOTTO_FUZZ_ITERS
// scales the count for nightly runs. Failures dump the offending text.
#include <gtest/gtest.h>

#include <string>

#include "ccl/parser.h"
#include "ccl/pattern.h"
#include "test_util.h"
#include "verify/fuzzer.h"
#include "workload/io.h"

namespace motto {
namespace {

using testing::IterationsFromEnv;

TEST(CclRoundtripTest, PatternPrintParse) {
  int iters = IterationsFromEnv("MOTTO_FUZZ_ITERS", 10000);
  EventTypeRegistry registry;
  verify::FuzzOptions options;
  options.num_event_types = 5;
  options.max_depth = 3;
  options.nested_prob = 0.5;
  options.predicate_prob = 0.35;
  // The printer/parser pair must round-trip inner negation even though the
  // engine rejects it — the front end is more general than the engine.
  options.allow_inner_negation = true;
  verify::QueryFuzzer fuzzer(&registry, options, /*seed=*/20260807);

  for (int i = 0; i < iters; ++i) {
    PatternExpr pattern = fuzzer.NextPattern();
    std::string text = pattern.ToString(registry);
    auto reparsed = ccl::ParsePattern(text, &registry);
    ASSERT_TRUE(reparsed.ok())
        << "iteration " << i << ": '" << text << "': " << reparsed.status();
    EXPECT_TRUE(*reparsed == pattern)
        << "iteration " << i << " round-trip changed the tree:\n  printed: "
        << text << "\n  reparsed: " << reparsed->ToString(registry);
  }
}

TEST(CclRoundtripTest, WorkloadFilePrintParse) {
  // 3 queries per workload.
  int iters = IterationsFromEnv("MOTTO_FUZZ_ITERS", 10000) / 10;
  EventTypeRegistry registry;
  verify::FuzzOptions options;
  options.num_queries = 3;
  options.max_depth = 2;
  options.allow_inner_negation = true;
  verify::QueryFuzzer fuzzer(&registry, options, /*seed=*/97);

  for (int i = 0; i < iters; ++i) {
    std::vector<Query> queries;
    for (int q = 0; q < options.num_queries; ++q) {
      queries.push_back(fuzzer.NextQuery("case" + std::to_string(q)));
    }
    std::string text = WorkloadToText(queries, registry);
    auto reparsed = ParseWorkloadText(text, &registry);
    ASSERT_TRUE(reparsed.ok())
        << "iteration " << i << ":\n" << text << "\n" << reparsed.status();
    ASSERT_EQ(reparsed->size(), queries.size()) << text;
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ((*reparsed)[q].name, queries[q].name) << text;
      EXPECT_EQ((*reparsed)[q].window, queries[q].window) << text;
      EXPECT_TRUE((*reparsed)[q].pattern == queries[q].pattern)
          << "iteration " << i << " query " << queries[q].name
          << " round-trip changed the tree:\n" << text;
    }
  }
}

/// The canonicalizer must be idempotent and round-trip through text too —
/// repro dumps print canonicalized queries, so canonical forms that do not
/// survive printing would break every dumped case.
TEST(CclRoundtripTest, CanonicalFormsRoundTrip) {
  int iters = IterationsFromEnv("MOTTO_FUZZ_ITERS", 10000) / 5;
  EventTypeRegistry registry;
  verify::FuzzOptions options;
  options.max_depth = 2;
  options.allow_inner_negation = true;
  verify::QueryFuzzer fuzzer(&registry, options, /*seed=*/4242);

  for (int i = 0; i < iters; ++i) {
    PatternExpr canonical = Canonicalize(fuzzer.NextPattern());
    EXPECT_TRUE(Canonicalize(canonical) == canonical) << "not idempotent";
    std::string text = canonical.ToString(registry);
    auto reparsed = ccl::ParsePattern(text, &registry);
    ASSERT_TRUE(reparsed.ok())
        << "iteration " << i << ": '" << text << "': " << reparsed.status();
    EXPECT_TRUE(*reparsed == canonical)
        << "iteration " << i << ": '" << text << "'";
  }
}

}  // namespace
}  // namespace motto
