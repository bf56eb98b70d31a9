// Command-line helpers shared by cyptrace and cyptraced. A malformed
// or out-of-range numeric flag is a usage error (exit 2) whose message
// names the program and the flag, raised while parsing, before any
// work starts.
#pragma once

#include <charconv>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "support/error.hpp"

namespace cypress::cli {

/// Parse an unsigned flag value of at most `max` (with `sizeSuffix` a
/// trailing k/m/g scales it, as in "64m"). Anything but decimal digits,
/// or a value past `max`, is a usage error naming the flag.
inline uint64_t parseUnsigned(const char* prog, const std::string& flag,
                              const std::string& v, uint64_t max = UINT64_MAX,
                              bool sizeSuffix = false) {
  std::string_view digits = v;
  unsigned shift = 0;
  if (sizeSuffix && !digits.empty()) {
    switch (digits.back()) {
      case 'k': case 'K': shift = 10; break;
      case 'm': case 'M': shift = 20; break;
      case 'g': case 'G': shift = 30; break;
      default: break;
    }
    if (shift != 0) digits.remove_suffix(1);
  }
  uint64_t n = 0;
  const char* end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, n);
  if (ec != std::errc() || ptr != end || n > (max >> shift)) {
    std::fprintf(stderr,
                 "%s: %s needs an unsigned integer%s up to %llu, got %s\n",
                 prog, flag.c_str(),
                 sizeSuffix ? " (optionally k, m or g)" : "",
                 static_cast<unsigned long long>(max), v.c_str());
    std::exit(2);
  }
  return n << shift;
}

/// Parse an int flag of at least `min` (1 for counts such as --procs,
/// 0 for indices such as --rank) and at most INT_MAX; anything else is
/// a usage error naming the flag.
inline int parseCount(const char* prog, const std::string& flag,
                      const std::string& v, int min = 1) {
  const auto n = static_cast<int>(parseUnsigned(prog, flag, v, INT_MAX));
  if (n < min) {
    std::fprintf(stderr, "%s: %s must be at least %d, got %s\n", prog,
                 flag.c_str(), min, v.c_str());
    std::exit(2);
  }
  return n;
}

inline std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CYP_CHECK(in.good(), "cannot open " << path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// A MiniC source file, as opposed to a workload name or a trace.
inline bool isSourceFile(const std::string& target) {
  return target.size() > 3 &&
         target.compare(target.size() - 3, 3, ".mc") == 0;
}

}  // namespace cypress::cli
