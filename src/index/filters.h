#ifndef AEETES_INDEX_FILTERS_H_
#define AEETES_INDEX_FILTERS_H_

#include <cstdint>

#include "src/sim/similarity.h"

namespace aeetes {

/// Counters for filter-cost accounting. The paper evaluates filter
/// techniques by the number of accessed inverted-index entries (Figure 11);
/// these counters are threaded through candidate generation.
struct FilterStats {
  uint64_t windows = 0;
  uint64_t substrings = 0;
  /// Prefixes computed from scratch (sorting the window's tokens). Lazy
  /// counts one per start position: each start builds its prefix from an
  /// empty set.
  uint64_t prefix_rebuilds = 0;
  /// Incremental prefix updates (Window Extend / Window Migrate). Lazy
  /// counts one per substring beyond the first of its start position.
  uint64_t prefix_updates = 0;
  /// Posting entries touched while scanning inverted lists.
  uint64_t entries_accessed = 0;
  /// Length groups skipped in batch by the length filter.
  uint64_t length_groups_skipped = 0;
  /// Origin groups skipped in batch because the origin was already a
  /// candidate of the current substring.
  uint64_t origin_groups_skipped = 0;
  /// Candidate (substring, origin) pairs produced.
  uint64_t candidates = 0;
  /// Candidate admissions rejected by the positional filter.
  uint64_t positional_pruned = 0;
  /// Lazy only: (token, substring) entries of the substring inverted
  /// index I built by phase 1. Zero for the other strategies.
  uint64_t registrations = 0;

  /// Cross-counter invariants that hold for every filter strategy; aborts
  /// via AEETES_CHECK_* on violation. Candidate generation calls this
  /// after every document, so a miscounted window/probe pairing (the
  /// classic sliding-window off-by-one) fails loudly in tests and under
  /// the sanitizer matrix instead of skewing Figure 10/11 accounting.
  void CheckConsistent() const;

  FilterStats& operator+=(const FilterStats& o) {
    windows += o.windows;
    substrings += o.substrings;
    prefix_rebuilds += o.prefix_rebuilds;
    prefix_updates += o.prefix_updates;
    entries_accessed += o.entries_accessed;
    length_groups_skipped += o.length_groups_skipped;
    origin_groups_skipped += o.origin_groups_skipped;
    candidates += o.candidates;
    positional_pruned += o.positional_pruned;
    registrations += o.registrations;
    return *this;
  }
};

}  // namespace aeetes

#endif  // AEETES_INDEX_FILTERS_H_
