#ifndef MOTTO_TESTS_TEST_UTIL_H_
#define MOTTO_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ccl/pattern.h"
#include "common/flags.h"
#include "common/result.h"
#include "event/event.h"
#include "event/stream.h"
#include "verify/differ.h"

namespace motto::testing {

/// Reads a fuzz-depth knob such as MOTTO_FUZZ_ITERS: a positive integer, or
/// `fallback` when the variable is unset or empty. Any other value fails
/// the calling test rather than quietly running the default depth.
inline int IterationsFromEnv(const char* variable, int fallback) {
  FlagSet flags("", {{"iters", FlagKind::kInt, std::to_string(fallback),
                      FlagMin::kPositive, "", variable}});
  Status status = flags.Parse({});
  if (!status.ok()) {
    ADD_FAILURE() << status;
    return fallback;
  }
  return static_cast<int>(flags.Int("iters"));
}

/// Fails the calling test on each failing case of a differential fuzz
/// sweep, and unless the sweep checked at least one case. With
/// `bound_skips`, at most a quarter of the cases (and at least one) may be
/// skipped, so a sweep cannot quietly check almost nothing.
inline void ExpectCleanSweep(const Result<verify::DiffOutcome>& outcome,
                             bool bound_skips = true) {
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  for (const verify::Failure& failure : outcome->failures) {
    ADD_FAILURE() << failure.ToString();
  }
  EXPECT_LT(outcome->skipped, outcome->iterations) << "no case was checked";
  if (bound_skips) {
    EXPECT_LE(outcome->skipped, std::max(1, outcome->iterations / 4));
  }
}

/// Builds a sorted primitive stream from (type name, timestamp) pairs,
/// registering names as primitive types.
inline EventStream MakeStream(
    EventTypeRegistry* registry,
    std::vector<std::pair<std::string, Timestamp>> events) {
  EventStream stream;
  stream.reserve(events.size());
  std::stable_sort(events.begin(), events.end(),
                   [](const auto& a, const auto& b) {
                     return a.second < b.second;
                   });
  for (const auto& [name, ts] : events) {
    stream.push_back(Event::Primitive(registry->RegisterPrimitive(name), ts));
  }
  return stream;
}

/// Multiset of match identities, the canonical comparison unit for
/// plan-equivalence tests.
using MatchSet = std::multiset<std::string>;

inline MatchSet Fingerprints(const std::vector<Event>& events) {
  MatchSet out;
  for (const Event& e : events) out.insert(e.Fingerprint());
  return out;
}

/// Brute-force reference semantics for one flat pattern over a stream:
/// enumerates operand assignments (distinct events, one per operand
/// position), applying the SEQ order guard, the window span guard,
/// per-operand payload predicates and window-scoped negation (with optional
/// per-negation predicates). DISJ emits each event accepted by an operand.
/// Either predicate vector may be empty (no restrictions) or parallel its
/// operand list. Exponential; use only on small streams.
inline MatchSet ReferenceMatches(
    const FlatPattern& flat, Duration window, const EventStream& stream,
    const std::vector<Predicate>& operand_predicates,
    const std::vector<Predicate>& negated_predicates) {
  MatchSet out;
  auto operand_accepts = [&](size_t pos, const Event& e) {
    if (e.type() != flat.operands[pos]) return false;
    if (pos >= operand_predicates.size()) return true;
    const Predicate& predicate = operand_predicates[pos];
    return predicate.empty() || predicate.Matches(e.payload());
  };
  if (flat.op == PatternOp::kDisj) {
    for (const Event& e : stream) {
      for (size_t pos = 0; pos < flat.operands.size(); ++pos) {
        if (operand_accepts(pos, e)) {
          out.insert(e.Fingerprint());
          break;
        }
      }
    }
    return out;
  }
  size_t n = flat.operands.size();
  std::vector<size_t> chosen;
  std::vector<bool> used(stream.size(), false);

  auto survives_negation = [&](Timestamp min_ts) {
    for (const Event& e : stream) {
      for (size_t neg = 0; neg < flat.negated.size(); ++neg) {
        if (e.type() != flat.negated[neg]) continue;
        if (neg < negated_predicates.size() &&
            !negated_predicates[neg].empty() &&
            !negated_predicates[neg].Matches(e.payload())) {
          continue;
        }
        if (e.begin() >= min_ts && e.begin() <= min_ts + window) return false;
      }
    }
    return true;
  };

  std::function<void(size_t)> recurse = [&](size_t pos) {
    if (pos == n) {
      Timestamp lo = stream[chosen[0]].begin(), hi = lo;
      for (size_t idx : chosen) {
        lo = std::min(lo, stream[idx].begin());
        hi = std::max(hi, stream[idx].begin());
      }
      if (hi - lo > window) return;
      if (!survives_negation(lo)) return;
      std::vector<Constituent> parts;
      for (size_t k = 0; k < n; ++k) {
        parts.push_back(Constituent{stream[chosen[k]].type(),
                                    stream[chosen[k]].begin(),
                                    static_cast<int32_t>(k)});
      }
      out.insert(Event::Composite(0, parts, hi).Fingerprint());
      return;
    }
    for (size_t i = 0; i < stream.size(); ++i) {
      if (used[i] || !operand_accepts(pos, stream[i])) continue;
      if (flat.op == PatternOp::kSeq && pos > 0 &&
          stream[chosen.back()].begin() >= stream[i].begin()) {
        continue;
      }
      // Prune on span incrementally.
      Timestamp lo = stream[i].begin(), hi = lo;
      for (size_t idx : chosen) {
        lo = std::min(lo, stream[idx].begin());
        hi = std::max(hi, stream[idx].begin());
      }
      if (hi - lo > window) continue;
      used[i] = true;
      chosen.push_back(i);
      recurse(pos + 1);
      chosen.pop_back();
      used[i] = false;
    }
  };
  if (n > 0 && !stream.empty()) recurse(0);
  return out;
}

inline MatchSet ReferenceMatches(const FlatPattern& flat, Duration window,
                                 const EventStream& stream) {
  return ReferenceMatches(flat, window, stream, {}, {});
}

}  // namespace motto::testing

#endif  // MOTTO_TESTS_TEST_UTIL_H_
