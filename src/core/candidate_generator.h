#ifndef AEETES_CORE_CANDIDATE_GENERATOR_H_
#define AEETES_CORE_CANDIDATE_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "src/common/metrics.h"
#include "src/core/document.h"
#include "src/index/clustered_index.h"
#include "src/index/filters.h"
#include "src/sim/similarity.h"
#include "src/synonym/derived_dictionary.h"

namespace aeetes {

/// The four filtering strategies evaluated in Figures 10 and 11.
enum class FilterStrategy {
  /// Enumerate substrings, compute each prefix from scratch, scan posting
  /// lists entry by entry (length + prefix filter per entry).
  kSimple = 0,
  /// + clustered index: batch-skip length groups failing the length filter
  /// and origin groups already known to be candidates.
  kSkip = 1,
  /// + dynamic prefix maintenance via Window Extend / Window Migrate.
  kDynamic = 2,
  /// + lazy candidate generation: collect valid tokens for all substrings
  /// first, then scan each posting list exactly once per document. Its
  /// enumeration needs no sliding windows: one pass fills per-document
  /// rank and previous-occurrence arrays, then each start position is
  /// extended once, keeping the K rarest distinct tokens (K = the longest
  /// prefix any admissible set size needs) in a small sorted buffer
  /// (DESIGN.md §4).
  kLazy = 3,
};

const char* FilterStrategyName(FilterStrategy s);

/// A candidate pair: substring [pos, pos + len) of the document may match
/// origin entity `origin` and must be verified.
struct Candidate {
  uint32_t pos = 0;
  uint32_t len = 0;
  EntityId origin = 0;

  bool operator==(const Candidate& o) const {
    return pos == o.pos && len == o.len && origin == o.origin;
  }
};

struct CandidateGenOutput {
  std::vector<Candidate> candidates;
  FilterStats stats;
};

struct CandidateGenOptions {
  /// Positional filter (Xiao et al., ppjoin): a candidate pair whose
  /// leftmost shared prefix token sits at positions (k, j) of the window /
  /// entity ordered sets can overlap by at most
  ///   1 + min(|s| - k - 1, |e| - j - 1),
  /// so pairs below RequiredOverlap are pruned before verification. Sound
  /// (the leftmost shared token's bound is exact), reduces candidates at a
  /// small per-entry cost. Off by default to match the paper's filter set.
  bool positional_filter = false;
  /// Window-length enumeration override: when set, windows are enumerated
  /// for derived-set sizes spanning [entity_size_min, entity_size_max]
  /// instead of the dictionary's own [min_set_size, max_set_size]. Used by
  /// the delta overlay (src/core/delta_layer.h): with live upserts and
  /// tombstones the *effective* entity-size range differs from the frozen
  /// dictionary's, and exact rebuild equivalence requires enumerating the
  /// same raw window lengths a rebuilt engine would. Must cover the
  /// dictionary's own range (a narrower range would drop frozen matches).
  bool override_entity_sizes = false;
  size_t entity_size_min = 0;
  size_t entity_size_max = 0;
};

struct ExtractScratch;

/// Runs the filter phase of Algorithm 1 with the chosen strategy. All four
/// strategies produce the same candidate *superset guarantees* (no false
/// negatives); they differ only in filter cost. Candidates are deduped per
/// (substring, origin).
///
/// With a non-null `trace`, the call records a "filter" span carrying the
/// FilterStats counters; the Lazy strategy additionally records its two
/// phases as child spans ("window_enumeration", "posting_scan").
CandidateGenOutput GenerateCandidates(FilterStrategy strategy,
                                      const Document& doc,
                                      const DerivedDictionary& dd,
                                      const ClusteredIndex& index, double tau,
                                      Metric metric = Metric::kJaccard,
                                      const CandidateGenOptions& options = {},
                                      TraceRecorder* trace = nullptr);

/// Scratch-backed variant: candidates land in `scratch.candidates`
/// (cleared on entry, capacity preserved) and every intermediate buffer —
/// window states, Dynamic scan caches, the Lazy registration arena, the
/// origin tracker — is drawn from `scratch`, so a warm scratch makes the
/// filter phase allocation-free. GenerateCandidates is a thin wrapper over
/// this with a throwaway scratch.
FilterStats GenerateCandidatesInto(FilterStrategy strategy,
                                   const Document& doc,
                                   const DerivedDictionary& dd,
                                   const ClusteredIndex& index, double tau,
                                   Metric metric,
                                   const CandidateGenOptions& options,
                                   ExtractScratch& scratch,
                                   TraceRecorder* trace = nullptr);

}  // namespace aeetes

#endif  // AEETES_CORE_CANDIDATE_GENERATOR_H_
