#include "obs/opt_trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "obs/json_util.h"

namespace motto::obs {

std::string_view EdgeDecisionName(EdgeDecision decision) {
  switch (decision) {
    case EdgeDecision::kAccepted:
      return "accepted";
    case EdgeDecision::kRejectedUnprofitable:
      return "unprofitable";
    case EdgeDecision::kRejectedDuplicateTypes:
      return "duplicate-operand-types";
    case EdgeDecision::kRejectedNegatedTarget:
      return "negated-target";
    case EdgeDecision::kRejectedOccurrenceCap:
      return "occurrence-cap";
  }
  return "?";
}

size_t RewriterTelemetry::CountDecision(EdgeDecision decision) const {
  return std::count_if(
      candidates.begin(), candidates.end(),
      [decision](const EdgeCandidate& c) { return c.decision == decision; });
}

size_t RewriterTelemetry::CountFamily(std::string_view family) const {
  return std::count_if(
      candidates.begin(), candidates.end(),
      [family](const EdgeCandidate& c) { return c.family == family; });
}

std::string RewriterTelemetry::ToJson() const {
  std::string out = "{";
  out += "\"pairs_considered\":" + std::to_string(pairs_considered);
  out += ",\"negated_source_skips\":" + std::to_string(negated_source_skips);
  out += ",\"window_mismatch_skips\":" + std::to_string(window_mismatch_skips);
  out += ",\"graph_nodes\":" + std::to_string(graph_nodes);
  out += ",\"graph_edges\":" + std::to_string(graph_edges);
  out += ",\"candidates\":[";
  for (size_t i = 0; i < candidates.size(); ++i) {
    const EdgeCandidate& c = candidates[i];
    if (i) out += ",";
    out += "{\"source\":" + std::to_string(c.source);
    out += ",\"target\":" + std::to_string(c.target);
    out += ",\"source_key\":\"" + JsonEscape(c.source_key) + "\"";
    out += ",\"target_key\":\"" + JsonEscape(c.target_key) + "\"";
    out += ",\"family\":\"" + JsonEscape(c.family) + "\"";
    out += ",\"recipe\":\"" + JsonEscape(c.recipe) + "\"";
    out += ",\"decision\":\"";
    out += EdgeDecisionName(c.decision);
    out += "\"";
    out += ",\"cost\":" + JsonNum(c.cost);
    out += ",\"scratch_cost\":" + JsonNum(c.scratch_cost) + "}";
  }
  out += "]}";
  return out;
}

std::string BnbTelemetry::ToJson() const {
  std::string out = "{";
  out += "\"expansions\":" + std::to_string(expansions);
  out += ",\"pruned_by_bound\":" + std::to_string(pruned_by_bound);
  out += ",\"fixed_by_reduced_cost\":" +
         std::to_string(fixed_by_reduced_cost);
  out += ",\"deadline_hit\":";
  out += deadline_hit ? "true" : "false";
  out += ",\"first_incumbent_seconds\":" + JsonNum(first_incumbent_seconds);
  out += ",\"solve_seconds\":" + JsonNum(solve_seconds);
  out += ",\"lower_bound\":" + JsonNum(lower_bound);
  out += ",\"gap\":" + JsonNum(gap);
  out += ",\"incumbents\":[";
  for (size_t i = 0; i < incumbents.size(); ++i) {
    if (i) out += ",";
    out += "{\"cost\":" + JsonNum(incumbents[i].cost);
    out += ",\"expansions\":" + std::to_string(incumbents[i].expansions);
    out += ",\"seconds\":" + JsonNum(incumbents[i].seconds) + "}";
  }
  out += "]}";
  return out;
}

std::string SaTelemetry::ToJson() const {
  std::string out = "{";
  out += "\"seed\":" + std::to_string(seed);
  out += ",\"iterations\":" + std::to_string(iterations);
  out += ",\"epoch_size\":" + std::to_string(epoch_size);
  out += ",\"t0\":" + JsonNum(t0);
  out += ",\"t_end\":" + JsonNum(t_end);
  out += ",\"cooling\":" + JsonNum(cooling);
  out += ",\"proposed\":" + std::to_string(proposed);
  out += ",\"accepted\":" + std::to_string(accepted);
  out += ",\"epochs\":[";
  for (size_t i = 0; i < epochs.size(); ++i) {
    const SaEpoch& e = epochs[i];
    if (i) out += ",";
    out += "{\"temperature\":" + JsonNum(e.temperature);
    out += ",\"proposed\":" + std::to_string(e.proposed);
    out += ",\"accepted\":" + std::to_string(e.accepted);
    out += ",\"improved_best\":" + std::to_string(e.improved_best);
    out += ",\"current_cost\":" + JsonNum(e.current_cost);
    out += ",\"best_cost\":" + JsonNum(e.best_cost) + "}";
  }
  out += "]}";
  return out;
}

std::string OptimizerProbe::ToJson() const {
  std::string out = "{";
  out += "\"rewriter\":" + rewriter.ToJson();
  out += ",\"solver\":{\"selected\":\"" + JsonEscape(selected_solver) + "\"";
  if (bnb.recorded) out += ",\"bnb\":" + bnb.ToJson();
  if (sa.recorded) out += ",\"sa\":" + sa.ToJson();
  out += "}}";
  return out;
}

std::string OptimizerProbe::Summary() const {
  std::string out;
  char line[256];
  if (rewriter.recorded) {
    std::snprintf(line, sizeof(line),
                  "rewriter: %zu nodes, %zu edges "
                  "(%llu pairs, %llu neg-skip, %llu win-skip)\n",
                  rewriter.graph_nodes, rewriter.graph_edges,
                  static_cast<unsigned long long>(rewriter.pairs_considered),
                  static_cast<unsigned long long>(
                      rewriter.negated_source_skips),
                  static_cast<unsigned long long>(
                      rewriter.window_mismatch_skips));
    out += line;
    // family x decision counts, one row per family that produced candidates.
    std::map<std::string, std::map<EdgeDecision, size_t>> table;
    for (const EdgeCandidate& c : rewriter.candidates) {
      ++table[c.family][c.decision];
    }
    for (const auto& [family, decisions] : table) {
      std::string row = "  " + family + ":";
      for (const auto& [decision, count] : decisions) {
        row += " " + std::to_string(count) + " ";
        row += EdgeDecisionName(decision);
        row += ",";
      }
      row.back() = '\n';
      out += row;
    }
  }
  if (bnb.recorded) {
    std::snprintf(line, sizeof(line),
                  "bnb: %llu expanded, %llu pruned, %llu fixed, "
                  "%zu incumbents%s (%.3fs%s), bound %.4f, gap %.3g%%\n",
                  static_cast<unsigned long long>(bnb.expansions),
                  static_cast<unsigned long long>(bnb.pruned_by_bound),
                  static_cast<unsigned long long>(bnb.fixed_by_reduced_cost),
                  bnb.incumbents.size(), bnb.deadline_hit ? " [deadline]" : "",
                  bnb.solve_seconds,
                  bnb.first_incumbent_seconds >= 0 ? ", improved" : "",
                  bnb.lower_bound, 100.0 * bnb.gap);
    out += line;
  }
  if (sa.recorded) {
    double ratio = sa.proposed
                       ? static_cast<double>(sa.accepted) /
                             static_cast<double>(sa.proposed)
                       : 0.0;
    std::snprintf(line, sizeof(line),
                  "sa: seed %llu, %d iters in %zu epochs, "
                  "%.0f%% accepted, t0=%.4g\n",
                  static_cast<unsigned long long>(sa.seed), sa.iterations,
                  sa.epochs.size(), 100.0 * ratio, sa.t0);
    out += line;
  }
  if (!selected_solver.empty()) {
    out += "selected: " + selected_solver + "\n";
  }
  return out;
}

}  // namespace motto::obs
