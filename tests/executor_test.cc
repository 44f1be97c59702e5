#include "engine/executor.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/parallel_executor.h"
#include "engine/plan_util.h"
#include "test_util.h"

namespace motto {
namespace {

using testing::Fingerprints;
using testing::MakeStream;
using testing::MatchSet;
using testing::ReferenceMatches;

class ExecutorTest : public ::testing::Test {
 protected:
  FlatQuery Query(const std::string& name, PatternOp op,
                  std::vector<std::string> operands, Duration window,
                  std::vector<std::string> negated = {}) {
    FlatQuery q;
    q.name = name;
    q.window = window;
    q.pattern.op = op;
    for (const std::string& n : operands) {
      q.pattern.operands.push_back(registry_.RegisterPrimitive(n));
    }
    for (const std::string& n : negated) {
      q.pattern.negated.push_back(registry_.RegisterPrimitive(n));
    }
    return q;
  }

  EventTypeRegistry registry_;
};

TEST_F(ExecutorTest, DefaultJqpSingleQuery) {
  FlatQuery q = Query("q1", PatternOp::kSeq, {"E1", "E2"}, Seconds(10));
  Jqp jqp = BuildDefaultJqp({q}, &registry_);
  auto executor = Executor::Create(jqp);
  ASSERT_TRUE(executor.ok()) << executor.status();
  EventStream s = MakeStream(&registry_, {{"E1", 1}, {"E2", 2}});
  auto result = executor->Run(s);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->sink_events.at("q1").size(), 1u);
  EXPECT_EQ(result->raw_events, 2u);
  EXPECT_EQ(result->TotalMatches(), 1u);
}

TEST_F(ExecutorTest, MultipleIndependentQueries) {
  FlatQuery q1 = Query("q1", PatternOp::kSeq, {"E1", "E2"}, Seconds(10));
  FlatQuery q2 = Query("q2", PatternOp::kConj, {"E2", "E3"}, Seconds(10));
  FlatQuery q3 = Query("q3", PatternOp::kDisj, {"E3"}, Seconds(10));
  Jqp jqp = BuildDefaultJqp({q1, q2, q3}, &registry_);
  auto executor = Executor::Create(jqp);
  ASSERT_TRUE(executor.ok()) << executor.status();
  EventStream s =
      MakeStream(&registry_, {{"E1", 1}, {"E2", 2}, {"E3", 3}, {"E3", 4}});
  auto result = executor->Run(s);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->sink_events.at("q1").size(), 1u);
  EXPECT_EQ(result->sink_events.at("q2").size(), 2u);
  EXPECT_EQ(result->sink_events.at("q3").size(), 2u);
}

TEST_F(ExecutorTest, ChainedSubQueryEqualsDirectPattern) {
  // SEQ(E1,E2,E3) executed as SEQ(E1,E2) -> SEQ({E1,E2},E3) must produce the
  // same matches as the direct three-operand node (paper §IV-B, DST).
  FlatQuery direct = Query("direct", PatternOp::kSeq, {"E1", "E2", "E3"},
                           Seconds(10));
  Jqp jqp = BuildDefaultJqp({direct}, &registry_);

  // Sub-query SEQ(E1,E2).
  FlatPattern sub;
  sub.op = PatternOp::kSeq;
  sub.operands = {registry_.Find("E1"), registry_.Find("E2")};
  JqpNode sub_node;
  sub_node.spec = MakeRawPatternSpec(sub, Seconds(10), &registry_);
  sub_node.label = "sub";
  int32_t sub_id = jqp.AddNode(sub_node);
  EventTypeId sub_type =
      std::get<PatternSpec>(sub_node.spec).output_type;

  // Downstream SEQ({E1,E2}, E3) bound to the sub-query.
  PatternSpec down;
  down.op = PatternOp::kSeq;
  down.window = Seconds(10);
  down.operands = {OperandBinding{{sub_type}, 1, {0, 1}, {}},
                   OperandBinding{{registry_.Find("E3")}, kRawChannel, {2}, {}}};
  FlatPattern full;
  full.op = PatternOp::kSeq;
  full.operands = {registry_.Find("E1"), registry_.Find("E2"),
                   registry_.Find("E3")};
  down.output_type = RegisterOutputType(full, Seconds(10), &registry_);
  JqpNode down_node;
  down_node.spec = down;
  down_node.inputs = {sub_id};
  down_node.label = "chained";
  int32_t down_id = jqp.AddNode(down_node);
  jqp.sinks.push_back(Jqp::Sink{"chained", down_id});

  auto executor = Executor::Create(jqp);
  ASSERT_TRUE(executor.ok()) << executor.status();

  Rng rng(42);
  EventTypeRegistry scratch = registry_;
  std::vector<std::string> names = {"E1", "E2", "E3", "X"};
  std::vector<std::pair<std::string, Timestamp>> raw;
  Timestamp ts = 0;
  for (int i = 0; i < 120; ++i) {
    ts += rng.Uniform(1, Seconds(1));
    raw.emplace_back(names[static_cast<size_t>(rng.Uniform(0, 3))], ts);
  }
  EventStream s = MakeStream(&registry_, raw);
  auto result = executor->Run(s);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Fingerprints(result->sink_events.at("direct")),
            Fingerprints(result->sink_events.at("chained")));
  EXPECT_FALSE(result->sink_events.at("direct").empty());
}

TEST_F(ExecutorTest, OrderFilterRealizesSeqFromConj) {
  // OTT (Table I): SEQ(L) == Filter_sc(CONJ(L)).
  FlatQuery seq = Query("seq", PatternOp::kSeq, {"E1", "E2", "E3"},
                        Seconds(5));
  FlatQuery conj = Query("conj", PatternOp::kConj, {"E1", "E2", "E3"},
                         Seconds(5));
  Jqp jqp = BuildDefaultJqp({seq, conj}, &registry_);
  int32_t conj_node = jqp.sinks[1].node;

  OrderFilterSpec filter;
  filter.required_order = seq.pattern.operands;
  filter.relabel = true;
  filter.output_type =
      RegisterOutputType(seq.pattern, Seconds(5), &registry_);
  JqpNode filter_node;
  filter_node.spec = filter;
  filter_node.inputs = {conj_node};
  int32_t filter_id = jqp.AddNode(filter_node);
  jqp.sinks.push_back(Jqp::Sink{"seq_via_filter", filter_id});

  auto executor = Executor::Create(jqp);
  ASSERT_TRUE(executor.ok()) << executor.status();

  Rng rng(7);
  std::vector<std::string> names = {"E1", "E2", "E3"};
  std::vector<std::pair<std::string, Timestamp>> raw;
  Timestamp ts = 0;
  for (int i = 0; i < 100; ++i) {
    ts += rng.Uniform(1, Seconds(1));
    raw.emplace_back(names[static_cast<size_t>(rng.Uniform(0, 2))], ts);
  }
  EventStream s = MakeStream(&registry_, raw);
  auto result = executor->Run(s);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Fingerprints(result->sink_events.at("seq")),
            Fingerprints(result->sink_events.at("seq_via_filter")));
  EXPECT_FALSE(result->sink_events.at("seq").empty());
  EXPECT_GT(result->sink_events.at("conj").size(),
            result->sink_events.at("seq").size());
}

TEST_F(ExecutorTest, SpanFilterRestrictsWindow) {
  // Source with 10s window; consumer keeps only matches fitting 2s.
  FlatQuery wide = Query("wide", PatternOp::kSeq, {"E1", "E2"}, Seconds(10));
  FlatQuery narrow = Query("narrow", PatternOp::kSeq, {"E1", "E2"},
                           Seconds(2));
  Jqp jqp = BuildDefaultJqp({wide, narrow}, &registry_);
  SpanFilterSpec span;
  span.max_span = Seconds(2);
  JqpNode span_node;
  span_node.spec = span;
  span_node.inputs = {jqp.sinks[0].node};
  int32_t span_id = jqp.AddNode(span_node);
  jqp.sinks.push_back(Jqp::Sink{"narrow_via_filter", span_id});

  auto executor = Executor::Create(jqp);
  ASSERT_TRUE(executor.ok()) << executor.status();
  EventStream s = MakeStream(&registry_, {{"E1", 0},
                                          {"E2", Seconds(1)},
                                          {"E1", Seconds(4)},
                                          {"E2", Seconds(9)}});
  auto result = executor->Run(s);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Fingerprints(result->sink_events.at("narrow")),
            Fingerprints(result->sink_events.at("narrow_via_filter")));
  EXPECT_EQ(result->sink_events.at("wide").size(), 3u);
  EXPECT_EQ(result->sink_events.at("narrow").size(), 1u);
}

TEST_F(ExecutorTest, ValidateRejectsNegWithConsumers) {
  FlatQuery neg = Query("neg", PatternOp::kSeq, {"E1", "E2"}, Seconds(1),
                        {"E9"});
  Jqp jqp = BuildDefaultJqp({neg}, &registry_);
  SpanFilterSpec span;
  span.max_span = Seconds(1);
  JqpNode span_node;
  span_node.spec = span;
  span_node.inputs = {0};
  jqp.AddNode(span_node);
  EXPECT_FALSE(Executor::Create(jqp).ok());
}

TEST_F(ExecutorTest, ValidateRejectsCycle) {
  FlatQuery q = Query("q", PatternOp::kSeq, {"E1", "E2"}, Seconds(1));
  Jqp jqp = BuildDefaultJqp({q}, &registry_);
  jqp.nodes[0].inputs = {0};
  EXPECT_FALSE(Executor::Create(jqp).ok());
}

TEST_F(ExecutorTest, ValidateRejectsBadChannels) {
  FlatQuery q = Query("q", PatternOp::kSeq, {"E1", "E2"}, Seconds(1));
  Jqp jqp = BuildDefaultJqp({q}, &registry_);
  std::get<PatternSpec>(jqp.nodes[0].spec).operands[0].channel = 3;
  EXPECT_FALSE(Executor::Create(jqp).ok());
}

TEST_F(ExecutorTest, ValidateRejectsBadSinks) {
  FlatQuery q = Query("q", PatternOp::kSeq, {"E1", "E2"}, Seconds(1));
  Jqp jqp = BuildDefaultJqp({q}, &registry_);
  Jqp out_of_range = jqp;
  out_of_range.sinks.push_back(Jqp::Sink{"ghost", 7});
  Status status = out_of_range.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("'ghost'"), std::string::npos) << status;
  EXPECT_FALSE(Executor::Create(out_of_range).ok());

  Jqp duplicate = jqp;
  duplicate.sinks.push_back(Jqp::Sink{"q", 0});
  status = duplicate.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("'q'"), std::string::npos) << status;
  EXPECT_FALSE(ParallelExecutor::Create(duplicate, 2).ok());
}

TEST_F(ExecutorTest, SinkOwnershipKeepsOwnedMatchesOnly) {
  FlatQuery q = Query("q", PatternOp::kSeq, {"E1", "E2"}, Seconds(10));
  Jqp jqp = BuildDefaultJqp({q}, &registry_);
  auto executor = Executor::Create(jqp);
  ASSERT_TRUE(executor.ok());
  // Matches (begin, end): (1, 2), (1, 4), (3, 4).
  EventStream s = MakeStream(&registry_,
                             {{"E1", 1}, {"E2", 2}, {"E1", 3}, {"E2", 4}});
  SinkOwnership horizon;  // A query added at 3 sees only (3, 4).
  horizon.begin_horizon = 3;
  executor->SetSinkOwnership({horizon});
  auto run = executor->Run(s);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->sink_counts.at("q"), 1u);
  ASSERT_EQ(run->sink_events.at("q").size(), 1u);
  EXPECT_EQ(run->sink_events.at("q")[0].begin(), 3);

  SinkOwnership slice;  // A time slice owning ends in (2, 4].
  slice.min_exclusive = 2;
  slice.max_inclusive = 4;
  executor->SetSinkOwnership({slice});
  executor->BeginSession();
  executor->FeedSession(s.data(), s.size());
  EXPECT_EQ(executor->session_sink_telemetry()[0].matches, 2u);
  EXPECT_EQ(executor->session_sink_telemetry()[0].last_emit_ts, 4);
  RunResult finished = executor->FinishSession();
  EXPECT_EQ(finished.sink_counts.at("q"), 2u);
  EXPECT_EQ(finished.sink_events.at("q").size(), 2u);

  executor->SetSinkOwnership({});
  run = executor->Run(s);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->sink_counts.at("q"), 3u);
}

TEST_F(ExecutorTest, RejectsUnsortedStream) {
  FlatQuery q = Query("q", PatternOp::kSeq, {"E1", "E2"}, Seconds(1));
  Jqp jqp = BuildDefaultJqp({q}, &registry_);
  auto executor = Executor::Create(jqp);
  ASSERT_TRUE(executor.ok());
  EventStream bad = {Event::Primitive(registry_.Find("E1"), 10),
                     Event::Primitive(registry_.Find("E2"), 5)};
  EXPECT_FALSE(executor->Run(bad).ok());
}

TEST_F(ExecutorTest, NodeStatsCountEvents) {
  FlatQuery q = Query("q", PatternOp::kSeq, {"E1", "E2"}, Seconds(10));
  Jqp jqp = BuildDefaultJqp({q}, &registry_);
  auto executor = Executor::Create(jqp);
  ASSERT_TRUE(executor.ok());
  EventStream s = MakeStream(&registry_, {{"E1", 1}, {"X", 2}, {"E2", 3}});
  ExecutorOptions options;
  options.collect_node_timing = true;
  auto result = executor->Run(s, options);
  ASSERT_TRUE(result.ok());
  // Node sees E1 and E2 but not X (type routing).
  EXPECT_EQ(result->node_stats[0].events_in, 2u);
  EXPECT_EQ(result->node_stats[0].events_out, 1u);
  EXPECT_GE(result->node_stats[0].busy_seconds, 0.0);
}

TEST_F(ExecutorTest, RunTwiceIsIdempotent) {
  FlatQuery q = Query("q", PatternOp::kSeq, {"E1", "E2"}, Seconds(10));
  Jqp jqp = BuildDefaultJqp({q}, &registry_);
  auto executor = Executor::Create(jqp);
  ASSERT_TRUE(executor.ok());
  EventStream s = MakeStream(&registry_, {{"E1", 1}, {"E2", 2}});
  auto r1 = executor->Run(s);
  auto r2 = executor->Run(s);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(Fingerprints(r1->sink_events.at("q")),
            Fingerprints(r2->sink_events.at("q")));
}

TEST_F(ExecutorTest, AgainstReferenceOnRandomStreams) {
  Rng rng(2024);
  for (int round = 0; round < 10; ++round) {
    EventTypeRegistry registry;
    FlatQuery q1{"q1",
                 FlatPattern{PatternOp::kSeq,
                             {registry.RegisterPrimitive("A"),
                              registry.RegisterPrimitive("B"),
                              registry.RegisterPrimitive("C")},
                             {}},
                 200};
    FlatQuery q2{"q2",
                 FlatPattern{PatternOp::kConj,
                             {registry.Find("B"), registry.Find("C")},
                             {registry.RegisterPrimitive("N")}},
                 150};
    Jqp jqp = BuildDefaultJqp({q1, q2}, &registry);
    auto executor = Executor::Create(jqp);
    ASSERT_TRUE(executor.ok());
    EventStream stream;
    Timestamp ts = 0;
    std::vector<EventTypeId> types = {registry.Find("A"), registry.Find("B"),
                                      registry.Find("C"), registry.Find("N")};
    for (int i = 0; i < 30; ++i) {
      ts += rng.Uniform(1, 60);
      stream.push_back(Event::Primitive(
          types[static_cast<size_t>(rng.Uniform(0, 3))], ts));
    }
    auto result = executor->Run(stream);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(Fingerprints(result->sink_events.at("q1")),
              ReferenceMatches(q1.pattern, q1.window, stream));
    EXPECT_EQ(Fingerprints(result->sink_events.at("q2")),
              ReferenceMatches(q2.pattern, q2.window, stream));
  }
}

// ---------------------------------------------------------------------------
// Parallel executor: identical match sets to the single-threaded executor.
// ---------------------------------------------------------------------------

// CTest names each case after the bytes of its parameter, so the struct has
// no padding: every byte is a field, and a case keeps its name across builds.
struct ParallelCase {
  int threads;
  int reruns;  // Further Run() calls on the same executor after the first.
  size_t batch;
};
static_assert(sizeof(ParallelCase) == 2 * sizeof(int) + sizeof(size_t));

class ParallelExecutorTest : public ::testing::TestWithParam<ParallelCase> {};

TEST_P(ParallelExecutorTest, MatchesSingleThreadedOutput) {
  EventTypeRegistry registry;
  FlatQuery q1{"q1",
               FlatPattern{PatternOp::kSeq,
                           {registry.RegisterPrimitive("A"),
                            registry.RegisterPrimitive("B")},
                           {}},
               300};
  FlatQuery q2{"q2",
               FlatPattern{PatternOp::kConj,
                           {registry.Find("A"), registry.RegisterPrimitive("C"),
                            registry.RegisterPrimitive("D")},
                           {}},
               400};
  FlatQuery q3{"q3",
               FlatPattern{PatternOp::kSeq,
                           {registry.Find("A"), registry.Find("C")},
                           {registry.RegisterPrimitive("N")}},
               250};
  Jqp jqp = BuildDefaultJqp({q1, q2, q3}, &registry);

  // Add a chained consumer to exercise cross-level batching: SEQ({A,B}, D).
  EventTypeId sub_type = std::get<PatternSpec>(jqp.nodes[0].spec).output_type;
  PatternSpec down;
  down.op = PatternOp::kSeq;
  down.window = 500;
  down.operands = {OperandBinding{{sub_type}, 1, {0, 1}, {}},
                   OperandBinding{{registry.Find("D")}, kRawChannel, {2}, {}}};
  FlatPattern full{PatternOp::kSeq,
                   {registry.Find("A"), registry.Find("B"), registry.Find("D")},
                   {}};
  down.output_type = RegisterOutputType(full, 500, &registry);
  JqpNode down_node;
  down_node.spec = down;
  down_node.inputs = {jqp.sinks[0].node};
  int32_t down_id = jqp.AddNode(down_node);
  jqp.sinks.push_back(Jqp::Sink{"chained", down_id});

  Rng rng(99);
  EventStream stream;
  Timestamp ts = 0;
  std::vector<EventTypeId> types = {registry.Find("A"), registry.Find("B"),
                                    registry.Find("C"), registry.Find("D"),
                                    registry.Find("N")};
  for (int i = 0; i < 3000; ++i) {
    ts += rng.Uniform(1, 50);
    stream.push_back(Event::Primitive(
        types[static_cast<size_t>(rng.Uniform(0, 4))], ts));
  }

  auto single = Executor::Create(jqp);
  ASSERT_TRUE(single.ok());
  auto expected = single->Run(stream);
  ASSERT_TRUE(expected.ok());

  const ParallelCase& param = GetParam();
  auto parallel = ParallelExecutor::Create(jqp, param.threads, param.batch);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  // Every run on the parked pool must start from clean matcher state.
  for (int run = 0; run <= param.reruns; ++run) {
    auto actual = parallel->Run(stream);
    ASSERT_TRUE(actual.ok());
    for (const auto& [name, events] : expected->sink_events) {
      EXPECT_EQ(Fingerprints(events),
                Fingerprints(actual->sink_events.at(name)))
          << "sink " << name << " threads=" << param.threads
          << " batch=" << param.batch << " run=" << run;
    }
  }
  EXPECT_GT(expected->TotalMatches(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadAndBatchSweep, ParallelExecutorTest,
    ::testing::Values(ParallelCase{1, 0, 1}, ParallelCase{1, 0, 64},
                      ParallelCase{2, 3, 16}, ParallelCase{2, 0, 512},
                      ParallelCase{4, 0, 128}, ParallelCase{4, 0, 4096},
                      ParallelCase{8, 0, 256}));

// Regression: the old batch loop's `while (pos < size || stream.empty())`
// condition only terminated for empty streams by accident; the pipelined
// executor must run exactly one (empty) batch plus the final flush and
// return for any thread/batch combination.
TEST(ParallelExecutorEdgeTest, EmptyStreamTerminates) {
  EventTypeRegistry registry;
  FlatQuery q{"q",
              FlatPattern{PatternOp::kSeq,
                          {registry.RegisterPrimitive("A"),
                           registry.RegisterPrimitive("B")},
                          {}},
              100};
  Jqp jqp = BuildDefaultJqp({q}, &registry);
  for (int threads : {1, 2, 4}) {
    for (size_t batch : {size_t{1}, size_t{512}}) {
      auto parallel = ParallelExecutor::Create(jqp, threads, batch);
      ASSERT_TRUE(parallel.ok());
      auto run = parallel->Run({});
      ASSERT_TRUE(run.ok()) << "threads=" << threads << " batch=" << batch;
      EXPECT_EQ(run->TotalMatches(), 0u);
      EXPECT_EQ(run->parallel.batches, 1u);
      EXPECT_EQ(run->parallel.node_activations, jqp.nodes.size());
    }
  }
}

// A single-event stream exercises the final-flush path: a deferred-negation
// match is only emitted by the terminal watermark advance.
TEST(ParallelExecutorEdgeTest, SingleEventStreamFlushesDeferredNegation) {
  EventTypeRegistry registry;
  FlatQuery q{"q",
              FlatPattern{PatternOp::kSeq,
                          {registry.RegisterPrimitive("A")},
                          {registry.RegisterPrimitive("N")}},
              100};
  Jqp jqp = BuildDefaultJqp({q}, &registry);
  EventStream stream = {Event::Primitive(registry.Find("A"), 10)};

  auto single = Executor::Create(jqp);
  ASSERT_TRUE(single.ok());
  auto expected = single->Run(stream);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected->TotalMatches(), 1u);

  for (int threads : {1, 2, 4}) {
    for (size_t batch : {size_t{1}, size_t{4096}}) {
      auto parallel = ParallelExecutor::Create(jqp, threads, batch);
      ASSERT_TRUE(parallel.ok());
      auto run = parallel->Run(stream);
      ASSERT_TRUE(run.ok());
      EXPECT_EQ(run->TotalMatches(), 1u)
          << "threads=" << threads << " batch=" << batch;
      EXPECT_EQ(Fingerprints(run->sink_events.at("q")),
                Fingerprints(expected->sink_events.at("q")));
    }
  }
}

// The pool is created once in Create: repeated Run() calls reuse it (the
// epoch counter advances) and scheduler counters stay coherent.
TEST(ParallelExecutorEdgeTest, RunReusesPoolAcrossCalls) {
  EventTypeRegistry registry;
  FlatQuery q{"q",
              FlatPattern{PatternOp::kSeq,
                          {registry.RegisterPrimitive("A"),
                           registry.RegisterPrimitive("B")},
                          {}},
              100};
  Jqp jqp = BuildDefaultJqp({q}, &registry);
  Rng rng(5);
  EventStream stream;
  Timestamp ts = 0;
  for (int i = 0; i < 500; ++i) {
    ts += rng.Uniform(1, 40);
    stream.push_back(Event::Primitive(
        rng.Bernoulli(0.5) ? registry.Find("A") : registry.Find("B"), ts));
  }
  auto parallel = ParallelExecutor::Create(jqp, 4, 64);
  ASSERT_TRUE(parallel.ok());
  uint64_t first_epochs = 0;
  for (int round = 1; round <= 3; ++round) {
    auto run = parallel->Run(stream);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run->parallel.threads, 4);
    EXPECT_EQ(run->parallel.batches, (stream.size() + 63) / 64);
    EXPECT_EQ(run->parallel.node_activations,
              jqp.nodes.size() * run->parallel.batches);
    if (round == 1) {
      first_epochs = run->parallel.pool_epochs;
      EXPECT_EQ(first_epochs, 1u);
    } else {
      EXPECT_EQ(run->parallel.pool_epochs,
                first_epochs + static_cast<uint64_t>(round) - 1);
    }
  }
}

TEST(ParallelExecutorCreateTest, RejectsBadParameters) {
  EventTypeRegistry registry;
  FlatQuery q{"q",
              FlatPattern{PatternOp::kSeq,
                          {registry.RegisterPrimitive("A"),
                           registry.RegisterPrimitive("B")},
                          {}},
              100};
  Jqp jqp = BuildDefaultJqp({q}, &registry);
  EXPECT_FALSE(ParallelExecutor::Create(jqp, 0).ok());
  EXPECT_FALSE(ParallelExecutor::Create(jqp, 2, 0).ok());
  EXPECT_FALSE(ParallelExecutor::Create(jqp, 2, 512, 0).ok());
  EXPECT_TRUE(ParallelExecutor::Create(jqp, 2).ok());
}

}  // namespace
}  // namespace motto
