// Whole-token number parsing, shared by the command-line tools and the
// crash-spec reader. Unlike strtoull/atoi, which stop at the first bad
// character and read garbage as 0, a token parses only if all of it is one
// in-range number: "1O00", "x", "" and, for an unsigned type, "-1" are all
// rejected.
#ifndef OZZ_SRC_BASE_NUMBER_H_
#define OZZ_SRC_BASE_NUMBER_H_

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <system_error>

namespace ozz::base {

template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return false;
  }
  *out = value;
  return true;
}

// The value of numeric flag `flag` of command-line tool `tool`. A value that
// does not parse ends the process with exit code 2 and the message
// "<tool>: <flag> expects a number, got '<text>'".
template <typename T>
T FlagNumber(const char* tool, const std::string& flag, const char* text) {
  T value{};
  if (!ParseNumber(text, &value)) {
    std::fprintf(stderr, "%s: %s expects a number, got '%s'\n", tool, flag.c_str(), text);
    std::exit(2);
  }
  return value;
}

}  // namespace ozz::base

#endif  // OZZ_SRC_BASE_NUMBER_H_
