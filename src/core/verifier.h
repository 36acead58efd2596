#ifndef AEETES_CORE_VERIFIER_H_
#define AEETES_CORE_VERIFIER_H_

#include <cstdint>
#include <vector>

#include "src/core/candidate_generator.h"
#include "src/core/document.h"
#include "src/sim/jaccar.h"
#include "src/synonym/derived_dictionary.h"

namespace aeetes {

/// A verified extraction result: substring [token_begin, token_begin +
/// token_len) of the document matches origin entity `entity` with
/// JaccAR score `score`, realized by derived entity `best_derived`.
struct Match {
  uint32_t token_begin = 0;
  uint32_t token_len = 0;
  EntityId entity = 0;
  double score = 0.0;
  DerivedId best_derived = JaccArScore::kNoDerived;

  bool operator==(const Match& o) const {
    return token_begin == o.token_begin && token_len == o.token_len &&
           entity == o.entity;
  }
};

struct VerifyStats {
  uint64_t verified = 0;
  uint64_t matched = 0;
  /// Pairs rejected by the origin-union overlap bound without scoring any
  /// derived entity (JaccArScore::bound_pruned).
  uint64_t bound_pruned = 0;

  /// Aborts via AEETES_CHECK_* unless matched + bound_pruned <= verified:
  /// both count disjoint subsets of the verified pairs (a pruned pair
  /// never matches).
  void CheckConsistent() const;

  /// Aggregation across documents (mirrors FilterStats::operator+=).
  VerifyStats& operator+=(const VerifyStats& o) {
    verified += o.verified;
    matched += o.matched;
    bound_pruned += o.bound_pruned;
    return *this;
  }
};

/// Comparison guard: scores are ratios of small integers while thresholds
/// like 0.8 are inexact doubles, so >= is evaluated with a small epsilon.
inline bool ScorePasses(double score, double tau) {
  return score >= tau - 1e-9;
}

/// Verifies candidates (Algorithm 1 lines 6-9): computes JaccAR for each
/// (substring, origin) pair and keeps pairs reaching `tau`. Candidates
/// sharing a substring reuse its ordered set. Results are sorted by
/// (token_begin, token_len, entity). With `early_termination` (default)
/// each derived-entity merge aborts as soon as the required overlap is out
/// of reach; scores of reported matches are exact either way.
std::vector<Match> VerifyCandidates(std::vector<Candidate> candidates,
                                    const Document& doc,
                                    const DerivedDictionary& dd, double tau,
                                    const JaccArOptions& options,
                                    VerifyStats* stats = nullptr,
                                    bool early_termination = true);

/// Scratch-backed variant: sorts `candidates` in place, writes matches
/// into `matches` (cleared on entry, capacity preserved) and keeps the
/// memoized per-substring set in `ordered_set` / `ordered_ranks`, so a
/// warm caller verifies without heap allocation. The early-termination
/// path scores against `ordered_ranks` (materialized ranks, pure integer
/// merges); `ordered_set` backs the exhaustive Score path.
/// VerifyCandidates is a thin wrapper over this.
void VerifyCandidatesInto(std::vector<Candidate>& candidates,
                          const Document& doc, const DerivedDictionary& dd,
                          double tau, const JaccArOptions& options,
                          std::vector<Match>& matches, TokenSeq& ordered_set,
                          std::vector<TokenRank>& ordered_ranks,
                          VerifyStats* stats = nullptr,
                          bool early_termination = true);

}  // namespace aeetes

#endif  // AEETES_CORE_VERIFIER_H_
