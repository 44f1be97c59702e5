// Reproduces Fig 13a: overall comparison on the stock market monitoring
// scenario — normalized throughput of NA/MST/LCSE/MOTTO vs basic workload
// ratio r.
#include "overall_comparison.h"

int main(int argc, char** argv) {
  const motto::Scenario scenario = motto::Scenario::kStockMarket;
  return motto::bench::RunOverallComparison(
      scenario,
      motto::bench::ParseFlags(
          argc, argv, motto::bench::OverallComparisonFlags(scenario),
          "Fig 13a — stock market monitoring, overall comparison",
          "Normalized throughput vs basic workload ratio r (100 queries)."));
}
