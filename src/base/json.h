// JSON string escaping, shared by every JSON writer in the tree (campaign,
// audit, race, SARIF, Perfetto, stats-stream and triage output).
#ifndef OZZ_SRC_BASE_JSON_H_
#define OZZ_SRC_BASE_JSON_H_

#include <cstdio>
#include <string>

namespace ozz::base {

// The body of a JSON string literal holding `s` (no surrounding quotes):
// quote and backslash are escaped, newline and tab use their short forms,
// and every other control byte becomes \u00XX.
inline std::string JsonEscape(const std::string& s) {
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
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace ozz::base

#endif  // OZZ_SRC_BASE_JSON_H_
