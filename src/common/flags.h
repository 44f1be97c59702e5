#ifndef MOTTO_COMMON_FLAGS_H_
#define MOTTO_COMMON_FLAGS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"

namespace motto {

/// How a flag is written and what its value parses to.
enum class FlagKind {
  kInt,       // --name=N, checked by ParseInt64.
  kDouble,    // --name=X, checked by ParseDouble.
  kString,    // --name=STR.
  kSwitch,    // --name, or --name=1|0|true|false.
  kOptional,  // --name or --name=STR, e.g. --stats[=json].
};

/// Lower bound on a number: none, >= 0, or > 0 (>= 1 for integers).
enum class FlagMin { kNone, kZero, kPositive };

/// One row of a command's flag table.
struct FlagSpec {
  std::string name;  // Without the leading "--".
  FlagKind kind;
  /// Parsed like a given value when the flag is absent; "" leaves it unset
  /// (numbers read 0, strings "").
  std::string default_value;
  FlagMin min;
  std::string help;
  /// Environment variable that, when set and non-empty, replaces the
  /// default; it is checked like the flag, and errors name it.
  std::string env = {};
};

/// A command's flags, parsed from "--name[=value]" arguments against the one
/// table the command declares. Anything else is an error: an unknown flag
/// (naming the nearest declared one), a value flag without a value, a
/// malformed or out-of-range number, or a positional argument.
class FlagSet {
 public:
  /// `usage` heads Usage(), e.g. "usage: motto run [flags]".
  FlagSet(std::string usage, std::vector<FlagSpec> specs);

  /// Parses the arguments after the command name, starting over from the
  /// defaults; a flag given twice keeps the last value. "--help" anywhere
  /// sets help_requested() and skips everything else, the environment too.
  Status Parse(const std::vector<std::string>& args);
  bool help_requested() const { return help_; }

  /// True when the flag was given, on the command line or by its variable.
  bool Has(const std::string& name) const;
  int64_t Int(const std::string& name) const;
  double Double(const std::string& name) const;
  /// A string or optional-value flag; "" when given bare.
  const std::string& String(const std::string& name) const;
  bool Switch(const std::string& name) const;

  /// The usage header, then one line per flag: help, default, bound and
  /// environment variable.
  std::string Usage() const;

 private:
  struct Value {
    bool given = false;
    std::string text;  // Checked by Assign().
  };

  /// Sets flag `i` from `text`; errors name `source`, the flag as written
  /// or its environment variable.
  Status Assign(size_t i, const std::string& text, const std::string& source);
  /// Index of `name`, or specs_.size() when it is not declared.
  size_t Find(const std::string& name) const;
  /// The value of declared flag `name`, checked to be of `kind` when one is
  /// given. Reading an undeclared flag, or as the wrong kind, is a bug.
  const Value& Read(const std::string& name,
                    std::optional<FlagKind> kind) const;

  std::string usage_;
  std::vector<FlagSpec> specs_;
  std::vector<Value> values_;  // Parallel to specs_.
  bool help_ = false;
};

}  // namespace motto

#endif  // MOTTO_COMMON_FLAGS_H_
