#include "engine/matcher.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/plan_util.h"
#include "test_util.h"

namespace motto {
namespace {

using testing::Fingerprints;
using testing::MakeStream;
using testing::MatchSet;
using testing::ReferenceMatches;

constexpr Timestamp kFar = 1'000'000'000'000;

/// Drives a stand-alone matcher over a raw stream the way the executor
/// would: watermark, then event; final watermark flush at the end.
std::vector<Event> RunMatcher(PatternMatcher* matcher,
                              const EventStream& stream) {
  std::vector<Event> out;
  for (const Event& e : stream) {
    matcher->OnWatermark(e.begin(), &out);
    matcher->OnEvent(kRawChannel, e, &out);
  }
  matcher->OnWatermark(kFar, &out);
  return out;
}

class MatcherTest : public ::testing::Test {
 protected:
  FlatPattern Pattern(PatternOp op, std::vector<std::string> operand_names,
                      std::vector<std::string> negated_names = {}) {
    FlatPattern flat;
    flat.op = op;
    for (const std::string& n : operand_names) {
      flat.operands.push_back(registry_.RegisterPrimitive(n));
    }
    for (const std::string& n : negated_names) {
      flat.negated.push_back(registry_.RegisterPrimitive(n));
    }
    return flat;
  }

  std::vector<Event> Run(const FlatPattern& flat, Duration window,
                         const EventStream& stream) {
    PatternMatcher matcher(MakeRawPatternSpec(flat, window, &registry_));
    return RunMatcher(&matcher, stream);
  }

  /// Same as Run but in selectivity-ordered (lazy) mode under the given
  /// evaluation order (empty = identity).
  std::vector<Event> RunLazy(const FlatPattern& flat, Duration window,
                             const EventStream& stream,
                             std::vector<int32_t> eval_order = {}) {
    PatternSpec spec = MakeRawPatternSpec(flat, window, &registry_);
    spec.eval_order = std::move(eval_order);
    PatternMatcher matcher(spec);
    matcher.SetEvalMode(EvalOrderMode::kSelectivity);
    return RunMatcher(&matcher, stream);
  }

  EventTypeRegistry registry_;
};

TEST_F(MatcherTest, SeqMatchesOrderedTriple) {
  FlatPattern flat = Pattern(PatternOp::kSeq, {"E1", "E2", "E3"});
  EventStream s = MakeStream(&registry_, {{"E1", 10}, {"E2", 20}, {"E3", 30}});
  std::vector<Event> out = Run(flat, Seconds(10), s);
  ASSERT_EQ(out.size(), 1u);
  const Event& m = out[0];
  EXPECT_EQ(m.begin(), 10);
  EXPECT_EQ(m.end(), 30);
  ASSERT_EQ(m.constituents().size(), 3u);
  EXPECT_EQ(m.constituents()[0].slot, 0);
  EXPECT_EQ(m.constituents()[1].slot, 1);
  EXPECT_EQ(m.constituents()[2].slot, 2);
  EXPECT_EQ(m.constituents()[1].ts, 20);
}

TEST_F(MatcherTest, SeqRejectsWrongOrder) {
  FlatPattern flat = Pattern(PatternOp::kSeq, {"E1", "E2"});
  EventStream s = MakeStream(&registry_, {{"E2", 10}, {"E1", 20}});
  EXPECT_TRUE(Run(flat, Seconds(10), s).empty());
}

TEST_F(MatcherTest, SeqEqualTimestampsDoNotChain) {
  FlatPattern flat = Pattern(PatternOp::kSeq, {"E1", "E2"});
  EventStream s = MakeStream(&registry_, {{"E1", 10}, {"E2", 10}});
  EXPECT_TRUE(Run(flat, Seconds(10), s).empty());
}

TEST_F(MatcherTest, SeqSkipTillAnyMatchProducesAllCombinations) {
  FlatPattern flat = Pattern(PatternOp::kSeq, {"E1", "E2"});
  EventStream s = MakeStream(
      &registry_, {{"E1", 1}, {"E1", 2}, {"E2", 3}, {"E2", 4}});
  EXPECT_EQ(Run(flat, Seconds(10), s).size(), 4u);
}

TEST_F(MatcherTest, SeqIgnoresInterleavedOtherTypes) {
  FlatPattern flat = Pattern(PatternOp::kSeq, {"E1", "E2"});
  EventStream s = MakeStream(&registry_, {{"E1", 1}, {"X", 2}, {"E2", 3}});
  EXPECT_EQ(Run(flat, Seconds(10), s).size(), 1u);
}

TEST_F(MatcherTest, WindowBoundaryIsInclusive) {
  FlatPattern flat = Pattern(PatternOp::kSeq, {"E1", "E2"});
  EventStream hit = MakeStream(&registry_, {{"E1", 0}, {"E2", Seconds(10)}});
  EXPECT_EQ(Run(flat, Seconds(10), hit).size(), 1u);
  EventStream miss =
      MakeStream(&registry_, {{"E1", 0}, {"E2", Seconds(10) + 1}});
  EXPECT_TRUE(Run(flat, Seconds(10), miss).empty());
}

TEST_F(MatcherTest, ConjMatchesAnyOrder) {
  FlatPattern flat = Pattern(PatternOp::kConj, {"E1", "E2"});
  EventStream s = MakeStream(&registry_, {{"E2", 10}, {"E1", 20}});
  ASSERT_EQ(Run(flat, Seconds(10), s).size(), 1u);
}

TEST_F(MatcherTest, ConjCountsCombinations) {
  FlatPattern flat = Pattern(PatternOp::kConj, {"E1", "E2"});
  EventStream s = MakeStream(&registry_,
                             {{"E1", 1}, {"E1", 2}, {"E2", 3}, {"E1", 4}});
  // Three E1s each pair with the single E2.
  EXPECT_EQ(Run(flat, Seconds(10), s).size(), 3u);
}

TEST_F(MatcherTest, ConjThreeOperands) {
  FlatPattern flat = Pattern(PatternOp::kConj, {"E1", "E2", "E3"});
  EventStream s = MakeStream(&registry_, {{"E3", 1}, {"E1", 2}, {"E2", 3}});
  ASSERT_EQ(Run(flat, Seconds(10), s).size(), 1u);
  EXPECT_EQ(Run(flat, 1, s).size(), 0u);  // 1us window too tight.
}

TEST_F(MatcherTest, DisjPassesMatchingTypesThrough) {
  FlatPattern flat = Pattern(PatternOp::kDisj, {"E1", "E2"});
  EventStream s = MakeStream(
      &registry_, {{"E1", 1}, {"X", 2}, {"E2", 3}, {"E1", 4}});
  std::vector<Event> out = Run(flat, Seconds(10), s);
  ASSERT_EQ(out.size(), 3u);
  for (const Event& e : out) EXPECT_TRUE(e.is_primitive());
}

TEST_F(MatcherTest, NegSuppressesWhenNegatedInsideWindow) {
  FlatPattern flat = Pattern(PatternOp::kSeq, {"E1", "E3"}, {"E2"});
  // E2 falls inside [E1.ts, E1.ts + w] regardless of order vs E3.
  EventStream with = MakeStream(&registry_, {{"E1", 10}, {"E3", 20}, {"E2", 30}});
  EXPECT_TRUE(Run(flat, Seconds(1), with).empty());
  EventStream before = MakeStream(&registry_, {{"E2", 15}, {"E1", 20}, {"E3", 30}});
  // E2 before the match anchor does not kill it.
  EXPECT_EQ(Run(flat, Seconds(1), before).size(), 1u);
}

TEST_F(MatcherTest, NegAllowsWhenNegatedOutsideWindow) {
  FlatPattern flat = Pattern(PatternOp::kSeq, {"E1", "E3"}, {"E2"});
  Duration w = Seconds(1);
  EventStream s = MakeStream(
      &registry_, {{"E1", 0}, {"E3", 100}, {"E2", w + 1}});
  std::vector<Event> out = Run(flat, w, s);
  ASSERT_EQ(out.size(), 1u);
  // NEG'd types never appear among constituents.
  for (const Constituent& c : out[0].constituents()) {
    EXPECT_NE(c.type, registry_.Find("E2"));
  }
}

TEST_F(MatcherTest, NegEmissionDeferredUntilExpiry) {
  FlatPattern flat = Pattern(PatternOp::kSeq, {"E1", "E3"}, {"E2"});
  Duration w = Seconds(1);
  PatternMatcher matcher(MakeRawPatternSpec(flat, w, &registry_));
  EventStream s = MakeStream(&registry_, {{"E1", 0}, {"E3", 10}});
  std::vector<Event> out;
  for (const Event& e : s) {
    matcher.OnWatermark(e.begin(), &out);
    matcher.OnEvent(kRawChannel, e, &out);
  }
  EXPECT_TRUE(out.empty());  // Not yet expired.
  matcher.OnWatermark(w, &out);
  EXPECT_TRUE(out.empty());  // Still within [0, w].
  matcher.OnWatermark(w + 1, &out);
  EXPECT_EQ(out.size(), 1u);
}

TEST_F(MatcherTest, NegKillsPendingMatchOnLateNegatedEvent) {
  FlatPattern flat = Pattern(PatternOp::kConj, {"E1", "E3"}, {"E2"});
  Duration w = Seconds(1);
  EventStream s = MakeStream(&registry_, {{"E3", 0}, {"E1", 10}, {"E2", 500}});
  EXPECT_TRUE(Run(flat, w, s).empty());
}

TEST_F(MatcherTest, NegBoundaryTimestampKills) {
  FlatPattern flat = Pattern(PatternOp::kSeq, {"E1", "E3"}, {"E2"});
  Duration w = Seconds(1);
  EventStream edge = MakeStream(&registry_, {{"E1", 0}, {"E3", 5}, {"E2", w}});
  EXPECT_TRUE(Run(flat, w, edge).empty());
}

TEST_F(MatcherTest, CompositeOperandUsesSlotMapAndBoundaries) {
  // Downstream node: SEQ({E1,E2} composite via channel 1, then E3 raw).
  EventTypeId e1 = registry_.RegisterPrimitive("E1");
  EventTypeId e2 = registry_.RegisterPrimitive("E2");
  EventTypeId e3 = registry_.RegisterPrimitive("E3");
  EventTypeId combo = registry_.RegisterComposite("{E1,E2}");
  EventTypeId outt = registry_.RegisterComposite("{E1,E2,E3}");

  PatternSpec spec;
  spec.op = PatternOp::kSeq;
  spec.window = Seconds(10);
  spec.output_type = outt;
  spec.operands = {
      OperandBinding{{combo}, 1, {0, 1}, {}},
      OperandBinding{{e3}, kRawChannel, {2}, {}},
  };
  PatternMatcher matcher(spec);

  std::vector<Event> out;
  Event composite =
      Event::Composite(combo, {{e1, 10, 0}, {e2, 30, 1}}, 30);
  matcher.OnWatermark(30, &out);
  matcher.OnEvent(1, composite, &out);
  // E3 at 25 begins before the composite ends -> SEQ guard rejects.
  matcher.OnWatermark(31, &out);
  matcher.OnEvent(kRawChannel, Event::Primitive(e3, 31), &out);
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].constituents().size(), 3u);
  EXPECT_EQ(out[0].constituents()[0].slot, 0);
  EXPECT_EQ(out[0].constituents()[2].slot, 2);
  EXPECT_EQ(out[0].begin(), 10);
  EXPECT_EQ(out[0].end(), 31);

  // A second E3 arriving mid-composite must not match (E2.ts=30 > 29).
  PatternMatcher matcher2(spec);
  out.clear();
  matcher2.OnWatermark(30, &out);
  matcher2.OnEvent(1, composite, &out);
  matcher2.OnWatermark(30, &out);
  matcher2.OnEvent(kRawChannel, Event::Primitive(e3, 29), &out);
  EXPECT_TRUE(out.empty());
}

TEST_F(MatcherTest, ExpiredPartialsAreEvicted) {
  FlatPattern flat = Pattern(PatternOp::kSeq, {"E1", "E2"});
  Duration w = 100;
  PatternMatcher matcher(MakeRawPatternSpec(flat, w, &registry_));
  std::vector<Event> out;
  EventTypeId e1 = registry_.Find("E1");
  for (int i = 0; i < 1000; ++i) {
    Timestamp ts = i * 1000;
    matcher.OnWatermark(ts, &out);
    matcher.OnEvent(kRawChannel, Event::Primitive(e1, ts), &out);
  }
  // All E1 partials but the most recent few are expired and swept.
  EXPECT_LT(matcher.PartialCount(), 70u);
}

TEST_F(MatcherTest, ResetClearsState) {
  FlatPattern flat = Pattern(PatternOp::kSeq, {"E1", "E2"});
  PatternMatcher matcher(MakeRawPatternSpec(flat, Seconds(10), &registry_));
  std::vector<Event> out;
  matcher.OnWatermark(1, &out);
  matcher.OnEvent(kRawChannel, Event::Primitive(registry_.Find("E1"), 1), &out);
  EXPECT_EQ(matcher.PartialCount(), 1u);
  matcher.Reset();
  EXPECT_EQ(matcher.PartialCount(), 0u);
  // E2 alone after reset: no dangling partial to extend.
  matcher.OnWatermark(2, &out);
  matcher.OnEvent(kRawChannel, Event::Primitive(registry_.Find("E2"), 2), &out);
  EXPECT_TRUE(out.empty());
}

TEST_F(MatcherTest, DuplicateOperandTypesUseDistinctEvents) {
  FlatPattern flat = Pattern(PatternOp::kSeq, {"E1", "E1"});
  EventStream one = MakeStream(&registry_, {{"E1", 1}});
  EXPECT_TRUE(Run(flat, Seconds(10), one).empty());
  EventStream two = MakeStream(&registry_, {{"E1", 1}, {"E1", 2}});
  EXPECT_EQ(Run(flat, Seconds(10), two).size(), 1u);
}

// ---------------------------------------------------------------------------
// Selectivity-ordered (lazy) mode: identical match semantics under any
// evaluation order, with buffering instead of eager partial fan-out.
// ---------------------------------------------------------------------------

TEST_F(MatcherTest, LazySeqAnchorLastStillReconstructsOrder) {
  // Anchor E3 arrives last; E1/E2 are buffered, then joined retroactively.
  FlatPattern flat = Pattern(PatternOp::kSeq, {"E1", "E2", "E3"});
  EventStream s = MakeStream(&registry_, {{"E1", 10}, {"E2", 20}, {"E3", 30}});
  std::vector<Event> out = RunLazy(flat, Seconds(10), s, {2, 0, 1});
  ASSERT_EQ(out.size(), 1u);
  const Event& m = out[0];
  EXPECT_EQ(m.begin(), 10);
  EXPECT_EQ(m.end(), 30);
  ASSERT_EQ(m.constituents().size(), 3u);
  // Emitted constituents are slot-ordered regardless of evaluation order.
  EXPECT_EQ(m.constituents()[0].slot, 0);
  EXPECT_EQ(m.constituents()[1].slot, 1);
  EXPECT_EQ(m.constituents()[2].slot, 2);
}

TEST_F(MatcherTest, LazySeqRejectsWrongOrderAndTiedTimestamps) {
  FlatPattern flat = Pattern(PatternOp::kSeq, {"E1", "E2"});
  EventStream wrong = MakeStream(&registry_, {{"E2", 10}, {"E1", 20}});
  EXPECT_TRUE(RunLazy(flat, Seconds(10), wrong, {1, 0}).empty());
  // Equal timestamps do not chain in lazy mode either (strict < guard).
  EventStream tied = MakeStream(&registry_, {{"E1", 10}, {"E2", 10}});
  EXPECT_TRUE(RunLazy(flat, Seconds(10), tied, {1, 0}).empty());
  EXPECT_TRUE(RunLazy(flat, Seconds(10), tied, {0, 1}).empty());
}

TEST_F(MatcherTest, LazyWindowBoundaryIsInclusive) {
  FlatPattern flat = Pattern(PatternOp::kSeq, {"E1", "E2"});
  EventStream hit = MakeStream(&registry_, {{"E1", 0}, {"E2", Seconds(10)}});
  EXPECT_EQ(RunLazy(flat, Seconds(10), hit, {1, 0}).size(), 1u);
  EventStream miss =
      MakeStream(&registry_, {{"E1", 0}, {"E2", Seconds(10) + 1}});
  EXPECT_TRUE(RunLazy(flat, Seconds(10), miss, {1, 0}).empty());
}

TEST_F(MatcherTest, LazyConjCountsCombinationsUnderEveryOrder) {
  FlatPattern flat = Pattern(PatternOp::kConj, {"E1", "E2"});
  EventStream s = MakeStream(&registry_,
                             {{"E1", 1}, {"E1", 2}, {"E2", 3}, {"E1", 4}});
  EXPECT_EQ(RunLazy(flat, Seconds(10), s, {0, 1}).size(), 3u);
  EXPECT_EQ(RunLazy(flat, Seconds(10), s, {1, 0}).size(), 3u);
}

TEST_F(MatcherTest, LazyDuplicateOperandTypesUseDistinctEvents) {
  // Both operands share type E1, so the operand buffers overlap: one
  // physical event must never fill both slots of one match.
  FlatPattern flat = Pattern(PatternOp::kSeq, {"E1", "E1"});
  EventStream one = MakeStream(&registry_, {{"E1", 1}});
  EXPECT_TRUE(RunLazy(flat, Seconds(10), one, {1, 0}).empty());
  EventStream two = MakeStream(&registry_, {{"E1", 1}, {"E1", 2}});
  EXPECT_EQ(RunLazy(flat, Seconds(10), two, {1, 0}).size(), 1u);
  EXPECT_EQ(RunLazy(flat, Seconds(10), two, {0, 1}).size(), 1u);
}

TEST_F(MatcherTest, LazyNegEmissionDeferredUntilExpiry) {
  FlatPattern flat = Pattern(PatternOp::kSeq, {"E1", "E3"}, {"E2"});
  Duration w = Seconds(1);
  PatternSpec spec = MakeRawPatternSpec(flat, w, &registry_);
  spec.eval_order = {1, 0};
  PatternMatcher matcher(spec);
  matcher.SetEvalMode(EvalOrderMode::kSelectivity);
  EventStream s = MakeStream(&registry_, {{"E1", 0}, {"E3", 10}});
  std::vector<Event> out;
  for (const Event& e : s) {
    matcher.OnWatermark(e.begin(), &out);
    matcher.OnEvent(kRawChannel, e, &out);
  }
  EXPECT_TRUE(out.empty());  // Deferred, exactly as in arrival mode.
  matcher.OnWatermark(w + 1, &out);
  EXPECT_EQ(out.size(), 1u);
}

TEST_F(MatcherTest, LazyNegKillsPendingMatchOnLateNegatedEvent) {
  FlatPattern flat = Pattern(PatternOp::kConj, {"E1", "E3"}, {"E2"});
  Duration w = Seconds(1);
  EventStream s = MakeStream(&registry_, {{"E3", 0}, {"E1", 10}, {"E2", 500}});
  EXPECT_TRUE(RunLazy(flat, w, s, {1, 0}).empty());
  EventStream edge = MakeStream(&registry_, {{"E1", 0}, {"E3", 5}, {"E2", w}});
  EXPECT_TRUE(RunLazy(flat, w, edge, {0, 1}).empty());
}

TEST_F(MatcherTest, LazyBuffersAndPartialsAreSwept) {
  FlatPattern flat = Pattern(PatternOp::kSeq, {"E1", "E2"});
  Duration w = 100;
  PatternSpec spec = MakeRawPatternSpec(flat, w, &registry_);
  spec.eval_order = {1, 0};  // E1 is the frequent, buffered operand.
  PatternMatcher matcher(spec);
  matcher.SetEvalMode(EvalOrderMode::kSelectivity);
  std::vector<Event> out;
  EventTypeId e1 = registry_.Find("E1");
  for (int i = 0; i < 1000; ++i) {
    Timestamp ts = i * 1000;
    matcher.OnWatermark(ts, &out);
    matcher.OnEvent(kRawChannel, Event::Primitive(e1, ts), &out);
  }
  // Only the most recent few E1s can still join a future anchor; the rest
  // must have been evicted from the operand buffer by the sweep.
  EXPECT_LT(matcher.BufferedCount(), 70u);
  EXPECT_EQ(matcher.PartialCount(), 0u);  // No anchors -> no runs at all.
  matcher.Reset();
  EXPECT_EQ(matcher.BufferedCount(), 0u);
}

TEST_F(MatcherTest, LazyFallsBackForDisjAndMalformedOrder) {
  // DISJ ignores SetEvalMode(kSelectivity) and stays pass-through.
  FlatPattern disj = Pattern(PatternOp::kDisj, {"E1", "E2"});
  EventStream s = MakeStream(
      &registry_, {{"E1", 1}, {"X", 2}, {"E2", 3}, {"E1", 4}});
  EXPECT_EQ(RunLazy(disj, Seconds(10), s).size(), 3u);
  // A malformed eval_order (wrong size) falls back to identity order
  // instead of corrupting dispatch.
  FlatPattern seq = Pattern(PatternOp::kSeq, {"E1", "E2"});
  EventStream ok = MakeStream(&registry_, {{"E1", 1}, {"E2", 2}});
  EXPECT_EQ(RunLazy(seq, Seconds(10), ok, {0}).size(), 1u);
}

// ---------------------------------------------------------------------------
// Property tests: the NFA matcher agrees with brute-force reference
// semantics on randomized streams, across operators, windows and negation.
// ---------------------------------------------------------------------------

// gtest names each case after the raw bytes of its PropertyCase, so the
// struct must have no padding bytes, whose contents are indeterminate.
struct PropertyCase {
  PropertyCase(PatternOp op_in, int num_operands_in, bool with_neg_in,
               Duration window_in, int16_t reruns_in = 0)
      : op(op_in),
        num_operands(num_operands_in),
        with_neg(with_neg_in ? 1 : 0),
        reruns(reruns_in),
        seed(static_cast<uint32_t>(num_operands_in * 1000 +
                                   static_cast<int>(op_in) * 100 +
                                   (with_neg_in ? 7 : 0) + window_in)),
        window(window_in) {}

  PatternOp op;
  int num_operands;
  int16_t with_neg;  // 0 or 1
  int16_t reruns;    // Replays of each round's stream after a Reset().
  uint32_t seed;     // Of the case's Rng.
  Duration window;
};
static_assert(sizeof(PropertyCase) ==
              sizeof(PatternOp) + sizeof(int) + 2 * sizeof(int16_t) +
                  sizeof(uint32_t) + sizeof(Duration));

class MatcherPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(MatcherPropertyTest, AgreesWithReference) {
  const PropertyCase& param = GetParam();
  Rng rng(param.seed);
  for (int round = 0; round < 25; ++round) {
    EventTypeRegistry registry;
    int alphabet = param.num_operands + 2;
    std::vector<EventTypeId> types;
    for (int i = 0; i < alphabet; ++i) {
      types.push_back(registry.RegisterPrimitive("T" + std::to_string(i)));
    }
    FlatPattern flat;
    flat.op = param.op;
    for (int i = 0; i < param.num_operands; ++i) {
      flat.operands.push_back(
          types[static_cast<size_t>(rng.Uniform(0, alphabet - 2))]);
    }
    if (param.with_neg) {
      flat.negated.push_back(types[static_cast<size_t>(alphabet - 1)]);
    }
    int n_events = static_cast<int>(rng.Uniform(5, 28));
    EventStream stream;
    Timestamp ts = 0;
    for (int i = 0; i < n_events; ++i) {
      ts += rng.Uniform(0, 40);  // Occasional equal timestamps.
      stream.push_back(Event::Primitive(
          types[static_cast<size_t>(rng.Uniform(0, alphabet - 1))], ts));
    }
    MatchSet expected = ReferenceMatches(flat, param.window, stream);
    // Every run after the first replays the stream on a Reset() matcher.
    PatternMatcher matcher(MakeRawPatternSpec(flat, param.window, &registry));
    for (int run = 0; run <= param.reruns; ++run) {
      if (run > 0) matcher.Reset();
      EXPECT_EQ(Fingerprints(RunMatcher(&matcher, stream)), expected)
          << "round " << round << " run " << run
          << " op=" << PatternOpName(flat.op)
          << " pattern=" << flat.ToString(registry)
          << " window=" << param.window;
    }
    // Lazy mode must agree under the identity order and a random shuffle.
    PatternSpec lazy_spec = MakeRawPatternSpec(flat, param.window, &registry);
    for (int variant = 0; variant < 2; ++variant) {
      if (variant == 1) {
        lazy_spec.eval_order.resize(flat.operands.size());
        for (size_t i = 0; i < lazy_spec.eval_order.size(); ++i) {
          lazy_spec.eval_order[i] = static_cast<int32_t>(i);
        }
        for (size_t i = lazy_spec.eval_order.size(); i > 1; --i) {
          std::swap(lazy_spec.eval_order[i - 1],
                    lazy_spec.eval_order[static_cast<size_t>(
                        rng.Uniform(0, static_cast<int64_t>(i) - 1))]);
        }
      }
      PatternMatcher lazy(lazy_spec);
      lazy.SetEvalMode(EvalOrderMode::kSelectivity);
      for (int run = 0; run <= param.reruns; ++run) {
        if (run > 0) lazy.Reset();
        EXPECT_EQ(Fingerprints(RunMatcher(&lazy, stream)), expected)
            << "lazy round " << round << " variant " << variant << " run "
            << run << " op=" << PatternOpName(flat.op)
            << " pattern=" << flat.ToString(registry)
            << " window=" << param.window;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Operators, MatcherPropertyTest,
    ::testing::Values(
        PropertyCase{PatternOp::kSeq, 2, false, 100},
        PropertyCase{PatternOp::kSeq, 3, false, 150},
        PropertyCase{PatternOp::kSeq, 4, false, 500},
        PropertyCase{PatternOp::kSeq, 2, true, 100},
        PropertyCase{PatternOp::kSeq, 3, true, 200},
        PropertyCase{PatternOp::kConj, 2, false, 100},
        PropertyCase{PatternOp::kConj, 3, false, 150},
        PropertyCase{PatternOp::kConj, 4, false, 300},
        PropertyCase{PatternOp::kConj, 2, true, 120},
        PropertyCase{PatternOp::kDisj, 2, false, 100},
        PropertyCase{PatternOp::kDisj, 4, false, 100},
        PropertyCase{PatternOp::kSeq, 3, false, 20},   // Tight window.
        PropertyCase{PatternOp::kConj, 3, false, 20, /*reruns_in=*/4},
        PropertyCase{PatternOp::kSeq, 2, false, 100000}));  // Loose window.

}  // namespace
}  // namespace motto
