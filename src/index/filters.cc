#include "src/index/filters.h"

#include "src/common/logging.h"

namespace aeetes {

void FilterStats::CheckConsistent() const {
  // Every probed substring was materialized by exactly one prefix rebuild
  // (Reset, or a Lazy start position) or incremental update (Extend /
  // Migrate, or one more Lazy extension step); a strategy that probes a
  // window state it never built has a bookkeeping bug.
  AEETES_CHECK_LE(substrings, prefix_rebuilds + prefix_updates)
      << "probed more substrings than window states built";
  // A candidate admission requires a probe, so candidates are bounded by
  // the work that produced them (entries touched or cached scan reuse,
  // both of which require at least one substring).
  if (candidates > 0) {
    AEETES_CHECK_GT(substrings, 0u)
        << "candidates produced without probing any substring";
  }
  if (positional_pruned > 0) {
    AEETES_CHECK_GT(substrings, 0u)
        << "positional filter ran without probing any substring";
  }
  if (registrations > 0) {
    AEETES_CHECK_GT(substrings, 0u)
        << "registered prefix tokens without enumerating any substring";
  }
}

}  // namespace aeetes
