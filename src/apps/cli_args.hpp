#pragma once
// Strict numeric command-line values, shared by the CLIs. The whole token
// must parse: "5x" is a usage error, not 5, and a typo in a threshold
// flag must not quietly turn its check off. A malformed value prints
// "<argv0>: <flag> needs ..., got '<token>'" and exits 2 (usage error).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string>

namespace iprune::apps {

/// Unsigned integer in [0, max]. Digits only: stoull alone would take a
/// leading '-' and wrap "-5" to 2^64-5, or a leading space or '+'.
inline std::uint64_t parse_u64_arg(
    const char* argv0, const char* flag, const char* token,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  std::size_t used = 0;
  std::uint64_t value = 0;
  if (token[0] >= '0' && token[0] <= '9') {
    try {
      value = std::stoull(token, &used);
    } catch (const std::exception&) {
      used = 0;
    }
  }
  if (used == 0 || token[used] != '\0' || value > max) {
    std::fprintf(stderr, "%s: %s needs an unsigned integer", argv0, flag);
    if (max != std::numeric_limits<std::uint64_t>::max()) {
      std::fprintf(stderr, " <= %llu", static_cast<unsigned long long>(max));
    }
    std::fprintf(stderr, ", got '%s'\n", token);
    std::exit(2);
  }
  return value;
}

/// A fraction in [0, 1], written as a decimal number.
inline double parse_fraction_arg(const char* argv0, const char* flag,
                                 const char* token) {
  char* end = nullptr;
  const double value = std::strtod(token, &end);
  const bool number = end != token && *end == '\0' &&
                      ((token[0] >= '0' && token[0] <= '9') ||
                       token[0] == '.');
  if (!number || !(value >= 0.0 && value <= 1.0)) {
    std::fprintf(stderr, "%s: %s needs a number in [0, 1], got '%s'\n",
                 argv0, flag, token);
    std::exit(2);
  }
  return value;
}

}  // namespace iprune::apps
