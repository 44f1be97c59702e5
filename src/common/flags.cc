#include "common/flags.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/check.h"
#include "common/parse.h"

namespace motto {

namespace {

size_t EditDistance(const std::string& a, const std::string& b) {
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diagonal = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t above = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diagonal + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diagonal = above;
    }
  }
  return row[b.size()];
}

std::string BoundText(const FlagSpec& spec) {
  if (spec.min == FlagMin::kZero) return ">= 0";
  return spec.kind == FlagKind::kInt ? ">= 1" : "> 0";
}

}  // namespace

FlagSet::FlagSet(std::string usage, std::vector<FlagSpec> specs)
    : usage_(std::move(usage)),
      specs_(std::move(specs)),
      values_(specs_.size()) {
  for (size_t i = 0; i < specs_.size(); ++i) {
    MOTTO_CHECK(specs_[i].name != "help" && Find(specs_[i].name) == i)
        << "bad or repeated flag --" << specs_[i].name;
  }
}

Status FlagSet::Parse(const std::vector<std::string>& args) {
  help_ = std::find(args.begin(), args.end(), "--help") != args.end();
  values_.assign(specs_.size(), Value{});
  if (help_) return Status::Ok();
  for (size_t i = 0; i < specs_.size(); ++i) {
    const FlagSpec& spec = specs_[i];
    if (!spec.default_value.empty()) {
      Status status = Assign(i, spec.default_value, "--" + spec.name);
      MOTTO_CHECK(status.ok()) << "bad default: " << status;
    }
    const char* env =
        spec.env.empty() ? nullptr : std::getenv(spec.env.c_str());
    if (env != nullptr && *env != '\0') {
      MOTTO_RETURN_IF_ERROR(Assign(i, env, spec.env));
      values_[i].given = true;
    }
  }
  for (const std::string& arg : args) {
    if (arg.size() < 3 || arg.compare(0, 2, "--") != 0) {
      return InvalidArgumentError("unexpected argument '" + arg + "'");
    }
    size_t eq = arg.find('=');
    std::string name = arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    size_t i = Find(name);
    if (i == specs_.size()) {
      std::string message = "unknown flag --" + name;
      auto nearest = std::min_element(
          specs_.begin(), specs_.end(), [&](const auto& a, const auto& b) {
            return EditDistance(name, a.name) < EditDistance(name, b.name);
          });
      if (nearest != specs_.end()) {
        message += " (did you mean --" + nearest->name + "?)";
      }
      return InvalidArgumentError(message);
    }
    FlagKind kind = specs_[i].kind;
    if (eq == std::string::npos && kind != FlagKind::kSwitch &&
        kind != FlagKind::kOptional) {
      return InvalidArgumentError("--" + name + " needs a value (use --" +
                                  name + "=...)");
    }
    MOTTO_RETURN_IF_ERROR(
        Assign(i, eq == std::string::npos ? "" : arg.substr(eq + 1),
               "--" + name));
    values_[i].given = true;
  }
  return Status::Ok();
}

Status FlagSet::Assign(size_t i, const std::string& text,
                       const std::string& source) {
  const FlagSpec& spec = specs_[i];
  auto bad = [&](const std::string& why) {
    return InvalidArgumentError("bad " + source + "='" + text + "': " + why);
  };
  values_[i].text = text;
  double number = 0.0;
  if (spec.kind == FlagKind::kInt) {
    Result<int64_t> parsed = ParseInt64(text);
    if (!parsed.ok()) return bad(parsed.status().message());
    number = static_cast<double>(*parsed);
  } else if (spec.kind == FlagKind::kDouble) {
    Result<double> parsed = ParseDouble(text);
    if (!parsed.ok()) return bad(parsed.status().message());
    number = *parsed;
  } else if (spec.kind == FlagKind::kSwitch && text != "" && text != "1" &&
             text != "true" && text != "0" && text != "false") {
    return bad("a switch takes no value, or 1|0|true|false");
  }
  if ((spec.min == FlagMin::kZero && number < 0) ||
      (spec.min == FlagMin::kPositive && number <= 0)) {
    return bad("must be " + BoundText(spec));
  }
  return Status::Ok();
}

size_t FlagSet::Find(const std::string& name) const {
  size_t i = 0;
  while (i < specs_.size() && specs_[i].name != name) ++i;
  return i;
}

const FlagSet::Value& FlagSet::Read(const std::string& name,
                                    std::optional<FlagKind> kind) const {
  size_t i = Find(name);
  MOTTO_CHECK(i < specs_.size()) << "--" << name << " is not declared";
  FlagKind declared = specs_[i].kind;
  // String() also reads optional-value flags.
  MOTTO_CHECK(!kind || *kind == declared ||
              (*kind == FlagKind::kString && declared == FlagKind::kOptional))
      << "--" << name << " read as the wrong kind";
  return values_[i];
}

bool FlagSet::Has(const std::string& name) const {
  return Read(name, std::nullopt).given;
}

// Parse() checked every text, so the numbers below parse.
int64_t FlagSet::Int(const std::string& name) const {
  const std::string& text = Read(name, FlagKind::kInt).text;
  return text.empty() ? 0 : ParseInt64(text).value();
}

double FlagSet::Double(const std::string& name) const {
  const std::string& text = Read(name, FlagKind::kDouble).text;
  return text.empty() ? 0.0 : ParseDouble(text).value();
}

const std::string& FlagSet::String(const std::string& name) const {
  return Read(name, FlagKind::kString).text;
}

bool FlagSet::Switch(const std::string& name) const {
  const Value& value = Read(name, FlagKind::kSwitch);
  return (value.given || !value.text.empty()) && value.text != "0" &&
         value.text != "false";
}

std::string FlagSet::Usage() const {
  // Indexed by FlagKind.
  static const char* const kPlaceholder[] = {"=N", "=X", "=STR", "",
                                             "[=STR]"};
  std::vector<std::pair<std::string, std::string>> rows;
  for (const FlagSpec& spec : specs_) {
    std::string notes;
    if (!spec.default_value.empty()) notes = "; default " + spec.default_value;
    if (spec.min != FlagMin::kNone) notes += "; " + BoundText(spec);
    if (!spec.env.empty()) notes += "; default from $" + spec.env;
    if (!notes.empty()) notes = " (" + notes.substr(2) + ")";
    rows.emplace_back(
        "--" + spec.name + kPlaceholder[static_cast<int>(spec.kind)],
        spec.help + notes);
  }
  rows.emplace_back("--help", "print this help and exit");
  size_t width = 0;
  for (const auto& row : rows) width = std::max(width, row.first.size());
  std::string out = usage_ + "\nflags:\n";
  for (const auto& [flag, help] : rows) {
    out += "  " + flag + std::string(width + 2 - flag.size(), ' ') + help +
           "\n";
  }
  return out;
}

}  // namespace motto
