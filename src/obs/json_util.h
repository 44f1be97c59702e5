#ifndef MOTTO_OBS_JSON_UTIL_H_
#define MOTTO_OBS_JSON_UTIL_H_

#include <cstdio>
#include <string>
#include <string_view>

namespace motto::obs {

/// Minimal JSON string escaping shared by the obs emitters (reports, traces,
/// metrics, optimizer probes, plan inspector). Covers the characters our
/// labels and keys can actually contain; every other byte below 0x20 is
/// \u-escaped.
inline std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Shortest-ish double rendering that stays valid JSON (no inf/nan).
inline std::string JsonNum(double v) {
  if (v != v) return "0";  // NaN guard; JSON has no NaN literal.
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", v);
  return buffer;
}

}  // namespace motto::obs

#endif  // MOTTO_OBS_JSON_UTIL_H_
