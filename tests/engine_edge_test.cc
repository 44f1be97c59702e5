// Engine edge cases: degenerate plans, operand-count limits, empty streams,
// DISJ-fed downstream operators, far-window arithmetic.
#include <limits>

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "engine/nfa.h"
#include "engine/parallel_executor.h"
#include "engine/plan_util.h"
#include "engine/sharded_executor.h"
#include "test_util.h"

namespace motto {
namespace {

using testing::Fingerprints;
using testing::MakeStream;

class EngineEdgeTest : public ::testing::Test {
 protected:
  FlatQuery Query(const std::string& name, PatternOp op,
                  std::vector<std::string> operands, Duration window) {
    FlatQuery q;
    q.name = name;
    q.window = window;
    q.pattern.op = op;
    for (const std::string& n : operands) {
      q.pattern.operands.push_back(registry_.RegisterPrimitive(n));
    }
    return q;
  }
  EventTypeRegistry registry_;
};

TEST_F(EngineEdgeTest, EmptyStreamProducesNoMatches) {
  Jqp jqp = BuildDefaultJqp(
      {Query("q", PatternOp::kSeq, {"A", "B"}, Seconds(1))}, &registry_);
  auto executor = Executor::Create(jqp);
  ASSERT_TRUE(executor.ok());
  auto run = executor->Run({});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->TotalMatches(), 0u);
  EXPECT_EQ(run->raw_events, 0u);
}

TEST_F(EngineEdgeTest, SingleOperandPatterns) {
  Jqp jqp = BuildDefaultJqp(
      {Query("seq1", PatternOp::kSeq, {"A"}, Seconds(1)),
       Query("conj1", PatternOp::kConj, {"A"}, Seconds(1)),
       Query("disj1", PatternOp::kDisj, {"A"}, Seconds(1))},
      &registry_);
  auto executor = Executor::Create(jqp);
  ASSERT_TRUE(executor.ok()) << executor.status();
  EventStream s = MakeStream(&registry_, {{"A", 1}, {"B", 2}, {"A", 3}});
  auto run = executor->Run(s);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->sink_events.at("seq1").size(), 2u);
  EXPECT_EQ(run->sink_events.at("conj1").size(), 2u);
  EXPECT_EQ(run->sink_events.at("disj1").size(), 2u);
}

TEST_F(EngineEdgeTest, ConjOperandCountLimit) {
  std::vector<std::string> names;
  for (int i = 0; i < kMaxConjOperands; ++i) {
    names.push_back("T" + std::to_string(i));
  }
  Jqp ok = BuildDefaultJqp({Query("ok", PatternOp::kConj, names, Seconds(1))},
                           &registry_);
  EXPECT_TRUE(ok.Validate().ok());
  names.push_back("overflow");
  Jqp bad = BuildDefaultJqp(
      {Query("bad", PatternOp::kConj, names, Seconds(1))}, &registry_);
  EXPECT_FALSE(bad.Validate().ok());
}

TEST_F(EngineEdgeTest, DisjFeedingSeqDownstream) {
  // SEQ(A, <B-or-C>) realized with a DISJ upstream and a multi-type binding.
  EventTypeId a = registry_.RegisterPrimitive("A");
  EventTypeId b = registry_.RegisterPrimitive("B");
  EventTypeId c = registry_.RegisterPrimitive("C");

  Jqp jqp;
  FlatPattern disj{PatternOp::kDisj, {b, c}, {}};
  JqpNode disj_node;
  disj_node.spec = MakeRawPatternSpec(disj, Seconds(1), &registry_);
  int32_t disj_id = jqp.AddNode(disj_node);

  PatternSpec seq;
  seq.op = PatternOp::kSeq;
  seq.window = Seconds(1);
  seq.output_type = registry_.RegisterComposite("{A,(B|C)}");
  seq.operands = {OperandBinding{{a}, kRawChannel, {0}, {}},
                  OperandBinding{{b, c}, 1, {1}, {}}};
  JqpNode seq_node;
  seq_node.spec = seq;
  seq_node.inputs = {disj_id};
  int32_t seq_id = jqp.AddNode(seq_node);
  jqp.sinks.push_back(Jqp::Sink{"q", seq_id});

  auto executor = Executor::Create(jqp);
  ASSERT_TRUE(executor.ok()) << executor.status();
  EventStream s = MakeStream(
      &registry_, {{"A", 10}, {"B", 20}, {"C", 30}, {"X", 40}, {"A", 50}});
  auto run = executor->Run(s);
  ASSERT_TRUE(run.ok());
  // A@10 pairs with B@20 and C@30; A@50 has no later disjunct.
  EXPECT_EQ(run->sink_events.at("q").size(), 2u);
}

TEST_F(EngineEdgeTest, HugeWindowDoesNotOverflow) {
  FlatQuery q = Query("q", PatternOp::kSeq, {"A", "B"},
                      std::numeric_limits<Timestamp>::max() / 16);
  Jqp jqp = BuildDefaultJqp({q}, &registry_);
  auto executor = Executor::Create(jqp);
  ASSERT_TRUE(executor.ok());
  EventStream s = MakeStream(&registry_, {{"A", 0}, {"B", Seconds(100000)}});
  auto run = executor->Run(s);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->TotalMatches(), 1u);
}

TEST_F(EngineEdgeTest, EventsBeforeEpochZeroWindowHorizon) {
  // First events arrive at ts 0; eviction horizon (ts - w) is negative and
  // must not drop live partials.
  FlatQuery q = Query("q", PatternOp::kSeq, {"A", "B"}, Seconds(10));
  Jqp jqp = BuildDefaultJqp({q}, &registry_);
  auto executor = Executor::Create(jqp);
  ASSERT_TRUE(executor.ok());
  EventStream s = MakeStream(&registry_, {{"A", 0}, {"B", 1}});
  auto run = executor->Run(s);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->TotalMatches(), 1u);
}

TEST_F(EngineEdgeTest, SinksOnSharedNodeCollectIndependently) {
  FlatQuery q = Query("q", PatternOp::kSeq, {"A", "B"}, Seconds(1));
  Jqp jqp = BuildDefaultJqp({q}, &registry_);
  jqp.sinks.push_back(Jqp::Sink{"alias", jqp.sinks[0].node});
  auto executor = Executor::Create(jqp);
  ASSERT_TRUE(executor.ok());
  EventStream s = MakeStream(&registry_, {{"A", 1}, {"B", 2}});
  auto run = executor->Run(s);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->sink_events.at("q").size(), 1u);
  EXPECT_EQ(run->sink_events.at("alias").size(), 1u);

  // The node feeds two sinks, so every executor copies its matches into
  // both: the pipelined one on its worker threads, the sharded one inside
  // each replica before the merge.
  auto parallel = ParallelExecutor::Create(jqp, /*num_threads=*/2,
                                           /*batch_size=*/1);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  auto sharded = ShardedExecutor::Create(jqp, /*num_shards=*/2);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  for (auto other : {parallel->Run(s), sharded->Run(s)}) {
    ASSERT_TRUE(other.ok()) << other.status();
    for (const char* sink : {"q", "alias"}) {
      EXPECT_EQ(Fingerprints(other->sink_events.at(sink)),
                Fingerprints(run->sink_events.at(sink)))
          << sink;
      EXPECT_EQ(other->sink_counts.at(sink), 1u) << sink;
    }
  }
}

}  // namespace
}  // namespace motto
