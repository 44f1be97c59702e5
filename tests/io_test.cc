#include "workload/io.h"

#include <gtest/gtest.h>

#include "workload/data_gen.h"
#include "workload/query_gen.h"

namespace motto {
namespace {

TEST(WorkloadIoTest, ParsesNamedAndAnonymousQueries) {
  EventTypeRegistry registry;
  std::string text =
      "# stock workload\n"
      "alerts: SELECT * FROM s MATCHING [10 sec : SEQ(AAPL, IBM)]\n"
      "\n"
      "SELECT * FROM s MATCHING [1 min : CONJ(MSFT & IBM)]  # inline comment\n";
  auto queries = ParseWorkloadText(text, &registry);
  ASSERT_TRUE(queries.ok()) << queries.status();
  ASSERT_EQ(queries->size(), 2u);
  EXPECT_EQ((*queries)[0].name, "alerts");
  EXPECT_EQ((*queries)[0].window, Seconds(10));
  EXPECT_EQ((*queries)[1].name, "q2");
  EXPECT_EQ((*queries)[1].window, Minutes(1));
  EXPECT_EQ((*queries)[1].pattern.op(), PatternOp::kConj);
}

TEST(WorkloadIoTest, ErrorsCarryLineNumbers) {
  EventTypeRegistry registry;
  auto bad = ParseWorkloadText("SELECT * FROM s MATCHING [10 sec : ]\n",
                               &registry);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 1"), std::string::npos);
  EXPECT_FALSE(ParseWorkloadText("", &registry).ok());
  EXPECT_FALSE(ParseWorkloadText("# only comments\n", &registry).ok());
}

TEST(WorkloadIoTest, RejectsDuplicateQueryNames) {
  EventTypeRegistry registry;
  auto twice = ParseWorkloadText(
      "q1: SELECT * FROM s MATCHING [10 sec : SEQ(A, B)]\n"
      "\n"
      "q1: SELECT * FROM s MATCHING [10 sec : SEQ(A, C)]\n",
      &registry);
  ASSERT_FALSE(twice.ok());
  const std::string message(twice.status().message());
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
  EXPECT_NE(message.find("'q1'"), std::string::npos) << message;
  EXPECT_NE(message.find("line 1"), std::string::npos) << message;

  // The second line's automatic name is q2, which the first line took.
  auto automatic = ParseWorkloadText(
      "q2: SELECT * FROM s MATCHING [10 sec : SEQ(A, B)]\n"
      "SELECT * FROM s MATCHING [10 sec : SEQ(A, C)]\n",
      &registry);
  ASSERT_FALSE(automatic.ok());
  EXPECT_NE(std::string(automatic.status().message()).find("'q2'"),
            std::string::npos)
      << automatic.status();
}

TEST(WorkloadIoTest, RoundTripThroughText) {
  EventTypeRegistry registry;
  WorkloadOptions options;
  options.num_queries = 12;
  options.basic_ratio = 0.5;
  auto workload = GenerateWorkload(options, &registry);
  ASSERT_TRUE(workload.ok());
  std::string text = WorkloadToText(workload->queries, registry);
  EventTypeRegistry registry2;
  auto reparsed = ParseWorkloadText(text, &registry2);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << text;
  ASSERT_EQ(reparsed->size(), workload->queries.size());
  for (size_t i = 0; i < reparsed->size(); ++i) {
    EXPECT_EQ((*reparsed)[i].name, workload->queries[i].name);
    EXPECT_EQ((*reparsed)[i].window, workload->queries[i].window);
    EXPECT_EQ((*reparsed)[i].pattern.ToString(registry2),
              workload->queries[i].pattern.ToString(registry));
  }
}

TEST(StreamIoTest, RoundTripThroughCsv) {
  EventTypeRegistry registry;
  StreamOptions options;
  options.num_events = 500;
  EventStream stream = GenerateStream(options, &registry);
  std::string csv = StreamToCsv(stream, registry);
  EventTypeRegistry registry2;
  auto reparsed = ParseStreamCsv(csv, &registry2);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  ASSERT_EQ(reparsed->size(), stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(registry2.NameOf((*reparsed)[i].type()),
              registry.NameOf(stream[i].type()));
    EXPECT_EQ((*reparsed)[i].begin(), stream[i].begin());
    EXPECT_EQ((*reparsed)[i].payload().aux, stream[i].payload().aux);
    EXPECT_NEAR((*reparsed)[i].payload().value, stream[i].payload().value,
                1e-4);
  }
}

TEST(StreamIoTest, ParsesMinimalCsvWithoutHeader) {
  EventTypeRegistry registry;
  auto stream = ParseStreamCsv("a,100\nb,200\na,300\n", &registry);
  ASSERT_TRUE(stream.ok()) << stream.status();
  ASSERT_EQ(stream->size(), 3u);
  EXPECT_EQ((*stream)[1].begin(), 200);
  EXPECT_EQ((*stream)[2].type(), registry.Find("a"));
}

TEST(StreamIoTest, RejectsMalformedCsv) {
  EventTypeRegistry registry;
  EXPECT_FALSE(ParseStreamCsv("justonetoken\n", &registry).ok());
  EXPECT_FALSE(ParseStreamCsv("a,notanumber\n", &registry).ok());
  // Out-of-order timestamps fail stream validation.
  EXPECT_FALSE(ParseStreamCsv("a,200\nb,100\n", &registry).ok());
}

TEST(StreamIoTest, RejectsMalformedNumbersWithContext) {
  EventTypeRegistry registry;
  // Trailing junk after a valid prefix: the classic unchecked-strtod trap
  // ("12x3" silently parsed as 12 before ParseDouble/ParseInt64).
  auto bad_ts = ParseStreamCsv("a,12x3\n", &registry);
  ASSERT_FALSE(bad_ts.ok());
  EXPECT_NE(bad_ts.status().message().find("line 1"), std::string::npos)
      << bad_ts.status();
  EXPECT_NE(bad_ts.status().message().find("12x3"), std::string::npos)
      << bad_ts.status();
  auto bad_value = ParseStreamCsv("a,100,1.5oops\n", &registry);
  ASSERT_FALSE(bad_value.ok());
  EXPECT_NE(bad_value.status().message().find("value"), std::string::npos)
      << bad_value.status();
  EXPECT_FALSE(ParseStreamCsv("a,100,1e999999\n", &registry).ok());
  auto bad_aux = ParseStreamCsv("a,100,1.5,7seven\n", &registry);
  ASSERT_FALSE(bad_aux.ok());
  EXPECT_NE(bad_aux.status().message().find("aux"), std::string::npos)
      << bad_aux.status();
  // Well-formed optional fields still parse.
  auto good = ParseStreamCsv("a,100,1.5,7\n", &registry);
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_DOUBLE_EQ((*good)[0].payload().value, 1.5);
  EXPECT_EQ((*good)[0].payload().aux, 7);
}

TEST(FileIoTest, SaveAndLoadFiles) {
  EventTypeRegistry registry;
  StreamOptions options;
  options.num_events = 200;
  EventStream stream = GenerateStream(options, &registry);
  std::string stream_path = ::testing::TempDir() + "/motto_stream.csv";
  ASSERT_TRUE(SaveStreamCsv(stream_path, stream, registry).ok());
  EventTypeRegistry registry2;
  auto loaded = LoadStreamCsv(stream_path, &registry2);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), stream.size());

  WorkloadOptions wo;
  wo.num_queries = 6;
  auto workload = GenerateWorkload(wo, &registry);
  ASSERT_TRUE(workload.ok());
  std::string workload_path = ::testing::TempDir() + "/motto_workload.ccl";
  ASSERT_TRUE(
      SaveWorkloadFile(workload_path, workload->queries, registry).ok());
  auto loaded_queries = LoadWorkloadFile(workload_path, &registry2);
  ASSERT_TRUE(loaded_queries.ok());
  EXPECT_EQ(loaded_queries->size(), 6u);

  EXPECT_FALSE(LoadStreamCsv("/nonexistent/path.csv", &registry2).ok());
  EXPECT_FALSE(LoadWorkloadFile("/nonexistent/path.ccl", &registry2).ok());
}

}  // namespace
}  // namespace motto
