#pragma once
// Integer argument parsing shared by the command-line programs: the whole
// argument must be one base-10 integer inside the option's range, or the
// program exits with usage code 2.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <optional>

namespace sparkxd::cli {

/// The whole of `spec` as a base-10 integer in [lo, hi], or nullopt for an
/// empty string, trailing characters, overflow or a value out of range.
inline std::optional<long long> parse_int(const char* spec, long long lo,
                                          long long hi) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(spec, &end, 10);
  if (end == spec || *end != '\0' || errno != 0 || v < lo || v > hi)
    return std::nullopt;
  return v;
}

/// parse_int for option `what` of program `prog`; on failure prints
/// "<prog>: <what> wants an integer in [lo, hi]" and exits 2.
inline long long parse_count(const char* prog, const char* what,
                             const char* spec, long long lo, long long hi) {
  const auto v = parse_int(spec, lo, hi);
  if (!v) {
    std::fprintf(stderr, "%s: %s wants an integer in [%lld, %lld]\n", prog,
                 what, lo, hi);
    std::exit(2);
  }
  return *v;
}

}  // namespace sparkxd::cli
