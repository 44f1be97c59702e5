#include "motto/churn.h"

#include <algorithm>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string_view>
#include <unordered_set>

#include "ccl/parser.h"
#include "common/parse.h"
#include "engine/runtime.h"
#include "motto/nested.h"
#include "motto/rewriter.h"
#include "obs/metrics.h"

namespace motto {

namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

std::string UserQueryOf(std::string_view sink_name) {
  size_t pos = sink_name.find("#in");
  if (pos == std::string_view::npos) return std::string(sink_name);
  return std::string(sink_name.substr(0, pos));
}

Result<ChurnScript> ParseChurnScript(const std::string& text,
                                     EventTypeRegistry* registry) {
  ChurnScript script;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view sv = line;
    size_t hash = sv.find('#');
    if (hash != std::string_view::npos) sv = sv.substr(0, hash);
    sv = Trim(sv);
    if (sv.empty()) continue;
    auto err = [line_no](const std::string& msg) {
      return InvalidArgumentError("churn script line " +
                                  std::to_string(line_no) + ": " + msg);
    };
    size_t sp1 = sv.find_first_of(" \t");
    if (sp1 == std::string_view::npos) {
      return err("expected '<ts_us> add <name>: <query>' or "
                 "'<ts_us> remove <name>'");
    }
    Result<int64_t> ts = ParseInt64(sv.substr(0, sp1));
    if (!ts.ok()) {
      return err("bad timestamp '" + std::string(sv.substr(0, sp1)) + "'");
    }
    std::string_view rest = Trim(sv.substr(sp1));
    size_t sp2 = rest.find_first_of(" \t");
    std::string_view verb =
        sp2 == std::string_view::npos ? rest : rest.substr(0, sp2);
    std::string_view payload =
        sp2 == std::string_view::npos ? std::string_view{}
                                      : Trim(rest.substr(sp2));
    ChurnCommand cmd;
    cmd.ts = *ts;
    if (verb == "add") {
      size_t colon = payload.find(':');
      if (colon == std::string_view::npos) {
        return err("add needs '<name>: <query>'");
      }
      std::string name(Trim(payload.substr(0, colon)));
      if (name.empty()) return err("add needs a query name");
      Result<Query> query =
          ccl::ParseQuery(Trim(payload.substr(colon + 1)), registry, name);
      if (!query.ok()) {
        return err(std::string(query.status().message()));
      }
      cmd.add = true;
      cmd.name = std::move(name);
      cmd.query = std::move(*query);
    } else if (verb == "remove") {
      if (payload.empty()) return err("remove needs a query name");
      cmd.add = false;
      cmd.name = std::string(payload);
    } else {
      return err("unknown command '" + std::string(verb) +
                 "' (want add or remove)");
    }
    if (!script.commands.empty() && cmd.ts < script.commands.back().ts) {
      return err("timestamps must be nondecreasing");
    }
    script.commands.push_back(std::move(cmd));
  }
  return script;
}

Result<ChurnScript> LoadChurnScript(const std::string& path,
                                    EventTypeRegistry* registry) {
  std::ifstream in(path);
  if (!in) {
    return InvalidArgumentError("cannot read churn script '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseChurnScript(buffer.str(), registry);
}

WorkloadSession::WorkloadSession(EventTypeRegistry* registry,
                                 StreamStats stats, OptimizerOptions options)
    : registry_(registry),
      stats_(std::move(stats)),
      options_(std::move(options)),
      cost_model_(stats_) {}

Status WorkloadSession::Initialize(const std::vector<Query>& queries) {
  if (initialized_) {
    return InternalError("WorkloadSession is already initialized");
  }
  if (options_.mode != OptimizerMode::kMotto) {
    return InvalidArgumentError(
        "online churn requires mode=motto: the incremental rewriter re-entry "
        "is only equivalent to a from-scratch build with every sharing "
        "technique enabled");
  }
  std::vector<std::vector<FlatQuery>> chains;
  std::vector<FlatQuery> flat;
  for (const Query& query : queries) {
    if (query_chains_.count(query.name) ||
        std::count_if(chains.begin(), chains.end(),
                      [&](const std::vector<FlatQuery>& c) {
                        return !c.empty() && c.back().name == query.name;
                      })) {
      return InvalidArgumentError("duplicate query name '" + query.name + "'");
    }
    MOTTO_ASSIGN_OR_RETURN(std::vector<FlatQuery> chain,
                           DivideNested(query, registry_, &catalog_));
    flat.insert(flat.end(), chain.begin(), chain.end());
    chains.push_back(std::move(chain));
  }
  RewriterOptions rewriter_options = RewriterOptions::Motto();
  rewriter_options.probe = options_.probe;
  graph_ = BuildSharingGraph(flat, rewriter_options, registry_, &catalog_,
                             &cost_model_);
  PlannerOptions planner_options = options_.planner;
  planner_options.probe = options_.probe;
  decision_ = SelectPlan(graph_, planner_options);
  MOTTO_RETURN_IF_ERROR(ValidateDecision(graph_, decision_).status());
  for (size_t i = 0; i < queries.size(); ++i) {
    MOTTO_RETURN_IF_ERROR(RegisterChain(queries[i].name, chains[i]));
  }
  MOTTO_RETURN_IF_ERROR(Rebuild());
  initialized_ = true;
  return Status::Ok();
}

Status WorkloadSession::RegisterChain(const std::string& user_name,
                                      const std::vector<FlatQuery>& chain) {
  std::vector<std::string> names;
  for (const FlatQuery& fq : chain) {
    auto it =
        graph_.index.find(SharingNodeKey(fq.pattern.Canonical(), fq.window));
    if (it == graph_.index.end()) {
      return InternalError("churn: no sharing node for flat query '" +
                           fq.name + "'");
    }
    flat_node_[fq.name] = it->second;
    terminal_owners_[it->second].insert(fq.name);
    names.push_back(fq.name);
  }
  query_chains_[user_name] = std::move(names);
  return Status::Ok();
}

Result<ReoptimizeStats> WorkloadSession::AddQuery(const Query& query) {
  if (!initialized_) {
    return InternalError("WorkloadSession is not initialized");
  }
  if (query_chains_.count(query.name)) {
    return InvalidArgumentError("query '" + query.name + "' is already live");
  }
  MOTTO_ASSIGN_OR_RETURN(std::vector<FlatQuery> chain,
                         DivideNested(query, registry_, &catalog_));
  RewriterOptions rewriter_options = RewriterOptions::Motto();
  rewriter_options.probe = options_.probe;
  SharingGraphExtension ext = ExtendSharingGraph(
      &graph_, chain, rewriter_options, registry_, &catalog_, &cost_model_);
  decision_.choice.resize(graph_.nodes.size(), kNodeNotSelected);
  MOTTO_RETURN_IF_ERROR(RegisterChain(query.name, chain));

  std::vector<char> touched(graph_.nodes.size(), 0);
  for (size_t v = ext.first_new_node; v < graph_.nodes.size(); ++v) {
    touched[v] = 1;
  }
  for (int32_t v : ext.touched_existing) {
    touched[static_cast<size_t>(v)] = 1;
  }
  MOTTO_ASSIGN_OR_RETURN(ReoptimizeStats stats, SolveTouchedRegion(touched));
  stats.added = true;
  stats.query = query.name;
  MOTTO_RETURN_IF_ERROR(Rebuild());
  return stats;
}

Result<ReoptimizeStats> WorkloadSession::SolveTouchedRegion(
    const std::vector<char>& touched) {
  const size_t n = graph_.nodes.size();
  // Connected components over the undirected edge skeleton: a change can
  // only alter optimal choices within components it reaches; every other
  // component's incumbent sub-tree stays optimal and is kept verbatim.
  std::vector<int32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&parent](int32_t v) {
    while (parent[static_cast<size_t>(v)] != v) {
      parent[static_cast<size_t>(v)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(v)])];
      v = parent[static_cast<size_t>(v)];
    }
    return v;
  };
  for (const SharingEdge& edge : graph_.edges) {
    int32_t a = find(edge.source);
    int32_t b = find(edge.target);
    if (a != b) parent[static_cast<size_t>(a)] = b;
  }
  std::vector<char> affected_root(n, 0);
  for (size_t v = 0; v < n; ++v) {
    if (touched[v]) affected_root[static_cast<size_t>(find(int32_t(v)))] = 1;
  }

  auto pinned = [this](int32_t v) {
    return decision_.choice[static_cast<size_t>(v)] != kNodeNotSelected;
  };

  // Remapped regional DSMT instance. Pinned nodes (already running) become
  // zero-cost terminals with no incoming edges: the solver must keep them
  // (their matcher state is live) and pays nothing for them, which is
  // exactly their marginal cost; new work may branch off their output.
  SharingGraph sub;
  std::vector<int32_t> region;
  std::vector<int32_t> local(n, -1);
  size_t pinned_count = 0;
  for (size_t v = 0; v < n; ++v) {
    if (!affected_root[static_cast<size_t>(find(int32_t(v)))]) continue;
    local[v] = static_cast<int32_t>(region.size());
    region.push_back(static_cast<int32_t>(v));
    SharingNode node = graph_.nodes[v];
    if (pinned(static_cast<int32_t>(v))) {
      node.terminal = true;
      node.scratch_cost = 0.0;
      ++pinned_count;
    }
    sub.index[node.key] = local[v];
    sub.nodes.push_back(std::move(node));
  }
  std::vector<int32_t> sub_edge_global;
  for (size_t e = 0; e < graph_.edges.size(); ++e) {
    const SharingEdge& edge = graph_.edges[e];
    if (local[static_cast<size_t>(edge.source)] < 0 ||
        local[static_cast<size_t>(edge.target)] < 0) {
      continue;
    }
    if (pinned(edge.target)) continue;  // Incumbent recipes never change.
    SharingEdge copy = edge;
    copy.source = local[static_cast<size_t>(edge.source)];
    copy.target = local[static_cast<size_t>(edge.target)];
    sub.edges.push_back(copy);
    sub_edge_global.push_back(static_cast<int32_t>(e));
  }

  PlannerOptions planner_options = options_.planner;
  planner_options.probe = options_.probe;
  PlanDecision sub_decision = SelectPlan(sub, planner_options);

  for (int32_t g : region) {
    if (pinned(g)) continue;
    int32_t c = sub_decision.choice[static_cast<size_t>(local[g])];
    decision_.choice[static_cast<size_t>(g)] =
        c >= 0 ? sub_edge_global[static_cast<size_t>(c)] : c;
  }
  MOTTO_ASSIGN_OR_RETURN(double cost, ValidateDecision(graph_, decision_));
  decision_.cost = cost;
  decision_.exact = decision_.exact && sub_decision.exact;
  decision_.solve_seconds += sub_decision.solve_seconds;

  ReoptimizeStats stats;
  stats.graph_nodes = n;
  stats.graph_edges = graph_.edges.size();
  stats.region_nodes = region.size();
  stats.pinned_nodes = pinned_count;
  stats.free_nodes = region.size() - pinned_count;
  stats.solve_seconds = sub_decision.solve_seconds;
  stats.exact = sub_decision.exact;
  stats.plan_cost = cost;
  return stats;
}

Result<ReoptimizeStats> WorkloadSession::RemoveQuery(const std::string& name) {
  if (!initialized_) {
    return InternalError("WorkloadSession is not initialized");
  }
  auto it = query_chains_.find(name);
  if (it == query_chains_.end()) {
    return InvalidArgumentError("unknown query '" + name + "'");
  }
  for (const std::string& flat : it->second) {
    auto fn = flat_node_.find(flat);
    if (fn == flat_node_.end()) {
      return InternalError("churn: flat query '" + flat + "' has no node");
    }
    int32_t v = fn->second;
    std::set<std::string>& owners = terminal_owners_[v];
    owners.erase(flat);
    SharingNode& node = graph_.nodes[static_cast<size_t>(v)];
    node.query_names.erase(
        std::remove(node.query_names.begin(), node.query_names.end(), flat),
        node.query_names.end());
    if (owners.empty()) {
      node.terminal = false;
      terminal_owners_.erase(v);
    }
    flat_node_.erase(fn);
  }
  query_chains_.erase(it);

  // Prune, never re-solve: deselect every node no longer on a chosen path
  // to a surviving terminal. Survivors keep their recipes, so their
  // physical operators (and live state) carry over unchanged.
  const size_t n = graph_.nodes.size();
  std::vector<char> needed(n, 0);
  std::vector<int32_t> stack;
  for (size_t v = 0; v < n; ++v) {
    if (graph_.nodes[v].terminal &&
        decision_.choice[v] != kNodeNotSelected) {
      needed[v] = 1;
      stack.push_back(static_cast<int32_t>(v));
    }
  }
  while (!stack.empty()) {
    int32_t v = stack.back();
    stack.pop_back();
    int32_t c = decision_.choice[static_cast<size_t>(v)];
    if (c >= 0) {
      int32_t s = graph_.edges[static_cast<size_t>(c)].source;
      if (!needed[static_cast<size_t>(s)]) {
        needed[static_cast<size_t>(s)] = 1;
        stack.push_back(s);
      }
    }
  }
  for (size_t v = 0; v < n; ++v) {
    if (!needed[v]) decision_.choice[v] = kNodeNotSelected;
  }
  MOTTO_ASSIGN_OR_RETURN(double cost, ValidateDecision(graph_, decision_));
  decision_.cost = cost;

  ReoptimizeStats stats;
  stats.added = false;
  stats.query = name;
  stats.graph_nodes = n;
  stats.graph_edges = graph_.edges.size();
  stats.exact = decision_.exact;
  stats.plan_cost = cost;
  MOTTO_RETURN_IF_ERROR(Rebuild());
  return stats;
}

bool WorkloadSession::HasQuery(const std::string& name) const {
  return query_chains_.count(name) > 0;
}

std::vector<std::string> WorkloadSession::QueryNames() const {
  std::vector<std::string> names;
  names.reserve(query_chains_.size());
  for (const auto& [name, chain] : query_chains_) names.push_back(name);
  return names;
}

std::vector<std::string> WorkloadSession::PhysicalKeys() const {
  std::vector<std::string> keys;
  keys.reserve(jqp_.nodes.size());
  for (size_t i = 0; i < jqp_.nodes.size(); ++i) {
    PlanNodeOrigin origin;
    if (i < provenance_.nodes.size()) origin = provenance_.nodes[i];
    std::string key;
    if (origin.sharing_node < 0) {
      // Outside the sharing plan (cannot happen under kMotto, where every
      // node is provenance-tracked); fall back to the display label.
      key = "unshared|";
      key += jqp_.NodeLabel(static_cast<int32_t>(i));
    } else {
      key = graph_.nodes[static_cast<size_t>(origin.sharing_node)].key;
      key += '|';
      key += PlanNodeRoleName(origin.role);
      if (origin.edge < 0) {
        key += "|ground";
      } else {
        // Identify the realization by the edge's content, not its index:
        // recipes are immutable once chosen, so the same (target, kind,
        // source, covered) means the same physical operator in any epoch.
        const SharingEdge& edge =
            graph_.edges[static_cast<size_t>(origin.edge)];
        key += '|';
        key += RecipeKindName(edge.recipe.kind);
        key += "|src=";
        key += graph_.nodes[static_cast<size_t>(edge.source)].key;
        key += "|cov=";
        for (int32_t c : edge.recipe.covered) {
          key += std::to_string(c);
          key += ',';
        }
      }
    }
    keys.push_back(std::move(key));
  }
  return keys;
}

Status WorkloadSession::Rebuild() {
  provenance_ = PlanProvenance{};
  MOTTO_ASSIGN_OR_RETURN(
      Jqp jqp, BuildJqp(graph_, decision_, catalog_, registry_, &provenance_));
  provenance_.nodes.resize(jqp.nodes.size());
  eval_orders_ = AnnotateEvalOrders(
      &jqp, stats_,
      CalibrationMultipliers(jqp, provenance_, graph_, options_.calibration));
  jqp_ = std::move(jqp);
  return Status::Ok();
}

namespace {

/// Builds an executor for the session's current plan with per-sink add-point
/// horizons: each sink inherits the birth timestamp of its user query
/// (inner "#in" sinks follow their outer query).
Result<Executor> MakeEpochExecutor(
    const WorkloadSession& session,
    const std::map<std::string, Timestamp>& birth) {
  MOTTO_ASSIGN_OR_RETURN(Executor executor, Executor::Create(session.jqp()));
  std::vector<SinkOwnership> rules(session.jqp().sinks.size());
  for (size_t s = 0; s < rules.size(); ++s) {
    auto it = birth.find(UserQueryOf(session.jqp().sinks[s].query_name));
    if (it != birth.end()) rules[s].begin_horizon = it->second;
  }
  executor.SetSinkOwnership(std::move(rules));
  return executor;
}

void ExportChurnMetrics(const ChurnOutcome& outcome,
                        obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  metrics->GetCounter("churn.swaps")->Add(outcome.migration.swaps);
  metrics->GetCounter("churn.nodes_kept")->Add(outcome.migration.nodes_kept);
  metrics->GetCounter("churn.nodes_new")->Add(outcome.migration.nodes_new);
  metrics->GetCounter("churn.nodes_dropped")
      ->Add(outcome.migration.nodes_dropped);
  metrics->GetCounter("churn.imports_failed")
      ->Add(outcome.migration.imports_failed);
  metrics->GetCounter("churn.partials_transferred")
      ->Add(outcome.migration.partials_transferred);
  metrics->GetCounter("churn.pending_transferred")
      ->Add(outcome.migration.pending_transferred);
  metrics->GetCounter("churn.buffered_transferred")
      ->Add(outcome.migration.buffered_transferred);
  metrics->GetCounter("churn.reoptimizations")
      ->Add(outcome.reoptimizations.size());
  for (const ReoptimizeStats& r : outcome.reoptimizations) {
    metrics->GetCounter("churn.resolve_region_nodes")->Add(r.region_nodes);
    metrics->GetCounter("churn.resolve_free_nodes")->Add(r.free_nodes);
  }
}

}  // namespace

Result<ChurnOutcome> RunChurn(const std::vector<Query>& initial,
                              const ChurnScript& script,
                              const EventStream& stream,
                              EventTypeRegistry* registry,
                              const OptimizerOptions& optimizer_options,
                              const ChurnRunOptions& run_options) {
  MOTTO_RETURN_IF_ERROR(ValidateStream(stream));
  for (size_t i = 1; i < script.commands.size(); ++i) {
    if (script.commands[i].ts < script.commands[i - 1].ts) {
      return InvalidArgumentError(
          "churn script timestamps must be nondecreasing");
    }
  }

  StreamStats stats = ComputeStats(stream);
  WorkloadSession session(registry, stats, optimizer_options);
  MOTTO_RETURN_IF_ERROR(session.Initialize(initial));

  ChurnOutcome outcome;
  std::map<std::string, Timestamp> birth;
  for (const Query& query : initial) {
    outcome.windows[query.name] = {kAlwaysLive, kNeverRemoved};
    birth[query.name] = kAlwaysLive;
  }

  MOTTO_ASSIGN_OR_RETURN(Executor executor,
                         MakeEpochExecutor(session, birth));
  executor.BeginSession(run_options.executor);

  size_t pos = 0;
  size_t ci = 0;
  while (ci < script.commands.size()) {
    const Timestamp boundary = script.commands[ci].ts;

    // Feed everything strictly before the swap point, then flush so every
    // match sealed before it is emitted by the outgoing plan. Removed
    // queries thereby finish their history exactly; surviving nodes defer
    // the rest via exported state.
    size_t start = pos;
    while (pos < stream.size() && stream[pos].begin() < boundary) ++pos;
    executor.FeedSession(stream.data() + start, pos - start);
    executor.FlushSessionAt(boundary);

    std::vector<std::string> old_keys = session.PhysicalKeys();
    MergeRunResult(executor.SuspendSession(), {}, &outcome.result);
    std::unordered_map<std::string, NodeState> exported;
    for (size_t i = 0; i < old_keys.size(); ++i) {
      NodeState state;
      executor.runtime(static_cast<int32_t>(i))->ExportState(&state);
      exported.emplace(old_keys[i], std::move(state));
    }

    // Apply every command scheduled at this swap point.
    while (ci < script.commands.size() &&
           script.commands[ci].ts == boundary) {
      const ChurnCommand& cmd = script.commands[ci];
      if (cmd.add) {
        MOTTO_ASSIGN_OR_RETURN(ReoptimizeStats stats_one,
                               session.AddQuery(cmd.query));
        outcome.reoptimizations.push_back(std::move(stats_one));
        birth[cmd.name] = boundary;
        outcome.windows[cmd.name] = {boundary, kNeverRemoved};
      } else {
        MOTTO_ASSIGN_OR_RETURN(ReoptimizeStats stats_one,
                               session.RemoveQuery(cmd.name));
        outcome.reoptimizations.push_back(std::move(stats_one));
        birth.erase(cmd.name);
        outcome.windows[cmd.name].second = boundary;
      }
      ++ci;
    }

    // Hot swap: surviving physical nodes import their state, everything
    // else starts fresh behind the new sinks' begin horizons.
    MOTTO_ASSIGN_OR_RETURN(Executor next, MakeEpochExecutor(session, birth));
    next.BeginSession(run_options.executor);
    std::vector<std::string> new_keys = session.PhysicalKeys();
    ++outcome.migration.swaps;
    std::unordered_set<std::string> claimed;
    for (size_t i = 0; i < new_keys.size(); ++i) {
      auto it = exported.find(new_keys[i]);
      if (it == exported.end()) {
        ++outcome.migration.nodes_new;
        continue;
      }
      const NodeState& state = it->second;
      claimed.insert(new_keys[i]);
      if (next.runtime(static_cast<int32_t>(i))->ImportState(state)) {
        ++outcome.migration.nodes_kept;
        outcome.migration.partials_transferred +=
            state.partials.size() + state.lazy_partials.size();
        outcome.migration.pending_transferred += state.pending.size();
        outcome.migration.buffered_transferred += state.buffered.size();
      } else {
        ++outcome.migration.imports_failed;
        ++outcome.migration.nodes_new;
      }
    }
    for (const auto& [key, state] : exported) {
      if (!claimed.count(key)) ++outcome.migration.nodes_dropped;
    }
    executor = std::move(next);
  }

  executor.FeedSession(stream.data() + pos, stream.size() - pos);
  MergeRunResult(executor.FinishSession(), {}, &outcome.result);

  ExportChurnMetrics(outcome, run_options.executor.metrics);
  return outcome;
}

}  // namespace motto
