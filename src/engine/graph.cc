#include "engine/graph.h"

#include <string>
#include <unordered_set>

#include "engine/nfa.h"

namespace motto {

int32_t Jqp::AddNode(JqpNode node) {
  nodes.push_back(std::move(node));
  return static_cast<int32_t>(nodes.size()) - 1;
}

Status Jqp::Validate() const {
  int32_t n = static_cast<int32_t>(nodes.size());
  std::vector<bool> has_consumer(static_cast<size_t>(n), false);
  for (int32_t i = 0; i < n; ++i) {
    const JqpNode& node = nodes[static_cast<size_t>(i)];
    for (int32_t input : node.inputs) {
      if (input < 0 || input >= n) {
        return InvalidArgumentError("node " + std::to_string(i) +
                                    " has out-of-range input");
      }
      if (input == i) {
        return InvalidArgumentError("node " + std::to_string(i) +
                                    " feeds itself");
      }
      has_consumer[static_cast<size_t>(input)] = true;
    }
    if (const auto* pattern = std::get_if<PatternSpec>(&node.spec)) {
      if (pattern->operands.empty()) {
        return InvalidArgumentError("pattern node without operands");
      }
      if (pattern->window <= 0) {
        return InvalidArgumentError("pattern node with non-positive window");
      }
      if (pattern->op == PatternOp::kConj &&
          static_cast<int32_t>(pattern->operands.size()) > kMaxConjOperands) {
        return InvalidArgumentError("CONJ with too many operands");
      }
      if (pattern->op == PatternOp::kDisj && !pattern->negated.empty()) {
        return InvalidArgumentError("NEG must be used with SEQ or CONJ");
      }
      if (!pattern->negated_predicates.empty() &&
          pattern->negated_predicates.size() != pattern->negated.size()) {
        return InvalidArgumentError(
            "negated_predicates must parallel negated");
      }
      for (const OperandBinding& binding : pattern->operands) {
        if (binding.types.empty()) {
          return InvalidArgumentError("operand without accepted types");
        }
        for (EventTypeId t : binding.types) {
          if (t == kInvalidEventType) {
            return InvalidArgumentError("operand with invalid type");
          }
        }
        if (binding.channel < 0 ||
            binding.channel > static_cast<Channel>(node.inputs.size())) {
          return InvalidArgumentError("operand channel out of range");
        }
        if (binding.slot_map.empty()) {
          return InvalidArgumentError("operand without slot map");
        }
      }
      if (pattern->op != PatternOp::kDisj &&
          pattern->output_type == kInvalidEventType) {
        return InvalidArgumentError("pattern node without output type");
      }
      if (!pattern->eval_order.empty()) {
        if (pattern->eval_order.size() != pattern->operands.size()) {
          return InvalidArgumentError(
              "eval_order must cover every operand or be empty");
        }
        std::vector<bool> seen_operand(pattern->operands.size(), false);
        for (int32_t k : pattern->eval_order) {
          if (k < 0 ||
              k >= static_cast<int32_t>(pattern->operands.size()) ||
              seen_operand[static_cast<size_t>(k)]) {
            return InvalidArgumentError(
                "eval_order is not a permutation of the operand indexes");
          }
          seen_operand[static_cast<size_t>(k)] = true;
        }
      }
    } else if (const auto* order = std::get_if<OrderFilterSpec>(&node.spec)) {
      if (node.inputs.size() != 1) {
        return InvalidArgumentError("order filter needs exactly one input");
      }
      std::unordered_set<EventTypeId> seen;
      for (EventTypeId t : order->required_order) {
        if (!seen.insert(t).second) {
          return InvalidArgumentError(
              "order filter requires distinct event types");
        }
      }
      if (order->required_order.empty()) {
        return InvalidArgumentError("order filter without required order");
      }
      if (order->relabel && order->output_type == kInvalidEventType) {
        return InvalidArgumentError("relabeling order filter needs a type");
      }
    } else if (const auto* span = std::get_if<SpanFilterSpec>(&node.spec)) {
      if (node.inputs.size() != 1) {
        return InvalidArgumentError("span filter needs exactly one input");
      }
      if (span->max_span < 0) {
        return InvalidArgumentError("span filter with negative span");
      }
    }
  }
  // Negation is only allowed on terminal nodes: deferred emission would
  // otherwise deliver events behind the consumer's watermark.
  for (int32_t i = 0; i < n; ++i) {
    const auto* pattern = std::get_if<PatternSpec>(&nodes[static_cast<size_t>(i)].spec);
    if (pattern != nullptr && !pattern->negated.empty() &&
        has_consumer[static_cast<size_t>(i)]) {
      return InvalidArgumentError("node " + std::to_string(i) +
                                  " with NEG has downstream consumers");
    }
  }
  std::unordered_set<std::string> sink_names;
  for (const Sink& sink : sinks) {
    if (sink.node < 0 || sink.node >= n) {
      return InvalidArgumentError("sink '" + sink.query_name +
                                  "' reads out-of-range node " +
                                  std::to_string(sink.node));
    }
    if (!sink_names.insert(sink.query_name).second) {
      return InvalidArgumentError("two sinks named '" + sink.query_name + "'");
    }
  }
  return TopoOrder().ok() ? Status::Ok()
                          : InvalidArgumentError("plan has a cycle");
}

Result<std::vector<int32_t>> Jqp::TopoOrder() const {
  int32_t n = static_cast<int32_t>(nodes.size());
  std::vector<int32_t> in_degree(static_cast<size_t>(n), 0);
  std::vector<std::vector<int32_t>> consumers(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) {
    for (int32_t input : nodes[static_cast<size_t>(i)].inputs) {
      if (input < 0 || input >= n) {
        return InvalidArgumentError("input out of range");
      }
      ++in_degree[static_cast<size_t>(i)];
      consumers[static_cast<size_t>(input)].push_back(i);
    }
  }
  std::vector<int32_t> order;
  order.reserve(static_cast<size_t>(n));
  std::vector<int32_t> ready;
  for (int32_t i = 0; i < n; ++i) {
    if (in_degree[static_cast<size_t>(i)] == 0) ready.push_back(i);
  }
  while (!ready.empty()) {
    int32_t v = ready.back();
    ready.pop_back();
    order.push_back(v);
    for (int32_t c : consumers[static_cast<size_t>(v)]) {
      if (--in_degree[static_cast<size_t>(c)] == 0) ready.push_back(c);
    }
  }
  if (static_cast<int32_t>(order.size()) != n) {
    return InvalidArgumentError("plan has a cycle");
  }
  return order;
}

std::string Jqp::NodeLabel(int32_t idx) const {
  size_t ui = static_cast<size_t>(idx);
  if (ui >= nodes.size()) return "node" + std::to_string(idx);
  const JqpNode& node = nodes[ui];
  if (!node.label.empty()) return node.label;
  std::string kind;
  if (const auto* pattern = std::get_if<PatternSpec>(&node.spec)) {
    kind = std::string(PatternOpName(pattern->op));
  } else if (std::get_if<OrderFilterSpec>(&node.spec) != nullptr) {
    kind = "order-filter";
  } else {
    kind = "span-filter";
  }
  return "node" + std::to_string(idx) + ":" + kind;
}

std::string Jqp::ToString(const EventTypeRegistry& registry) const {
  std::string out;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const JqpNode& node = nodes[i];
    out += "node " + std::to_string(i);
    if (!node.label.empty()) out += " [" + node.label + "]";
    out += ": ";
    if (const auto* pattern = std::get_if<PatternSpec>(&node.spec)) {
      out += std::string(PatternOpName(pattern->op)) + "(";
      for (size_t k = 0; k < pattern->operands.size(); ++k) {
        if (k > 0) out += ", ";
        const OperandBinding& b = pattern->operands[k];
        for (size_t t = 0; t < b.types.size(); ++t) {
          if (t > 0) out += "/";
          out += registry.NameOf(b.types[t]);
        }
        if (!b.predicate.empty()) out += "[" + b.predicate.ToString() + "]";
        if (b.channel != kRawChannel) {
          out += "<-#" +
                 std::to_string(node.inputs[static_cast<size_t>(b.channel - 1)]);
        }
      }
      for (size_t k = 0; k < pattern->negated.size(); ++k) {
        out += ", NEG(" + registry.NameOf(pattern->negated[k]);
        if (k < pattern->negated_predicates.size() &&
            !pattern->negated_predicates[k].empty()) {
          out += "[" + pattern->negated_predicates[k].ToString() + "]";
        }
        out += ")";
      }
      out += ") window=" + std::to_string(pattern->window) + "us";
      if (!pattern->eval_order.empty()) {
        out += " eval-order=";
        for (size_t k = 0; k < pattern->eval_order.size(); ++k) {
          if (k > 0) out += ",";
          out += std::to_string(pattern->eval_order[k]);
        }
      }
    } else if (const auto* order = std::get_if<OrderFilterSpec>(&node.spec)) {
      out += "OrderFilter(";
      for (size_t k = 0; k < order->required_order.size(); ++k) {
        if (k > 0) out += " < ";
        out += registry.NameOf(order->required_order[k]);
      }
      out += ") <-#" + std::to_string(node.inputs[0]);
    } else if (const auto* span = std::get_if<SpanFilterSpec>(&node.spec)) {
      out += "SpanFilter(" + std::to_string(span->max_span) + "us) <-#" +
             std::to_string(node.inputs[0]);
    }
    out += "\n";
  }
  for (const Sink& sink : sinks) {
    out += "sink " + sink.query_name + " <- node " + std::to_string(sink.node) +
           "\n";
  }
  return out;
}

}  // namespace motto
