#include "src/sim/jaccar.h"

#include <algorithm>

#include "src/text/token_set.h"

namespace aeetes {

JaccArScore JaccArVerifier::Score(EntityId e,
                                  const TokenSeq& substring_ordered_set,
                                  double tau) const {
  JaccArScore best;
  const auto [begin, end] = dd_.DerivedRange(e);
  const TokenDictionary& dict = dd_.token_dict();
  const LengthRange partner =
      tau > 0.0
          ? PartnerLengthRange(options_.metric, substring_ordered_set.size(),
                               tau)
          : LengthRange{};
  for (DerivedId d = begin; d < end; ++d) {
    const Span<TokenId> set = dd_.ordered_set(d);
    if (tau > 0.0 && !partner.Contains(set.size())) continue;
    double s = SimilarityOnOrderedSets(options_.metric, set,
                                       substring_ordered_set, dict);
    if (options_.weighted) s *= dd_.weight(d);
    if (s > best.score) {
      best.score = s;
      best.best_derived = d;
    }
  }
  return best;
}

JaccArScore JaccArVerifier::BestAbove(EntityId e,
                                      const TokenSeq& substring_ordered_set,
                                      double tau) const {
  JaccArScore best;
  const auto [begin, end] = dd_.DerivedRange(e);
  const TokenDictionary& dict = dd_.token_dict();
  const size_t x = substring_ordered_set.size();
  const LengthRange partner = PartnerLengthRange(options_.metric, x, tau);
  // The length filter rejects most derived entities on size alone, so it
  // runs as a binary search over the dictionary's size-sorted index (4-byte
  // keys, contiguous) instead of a scan that pulls in every DerivedEntity.
  // Iteration order differs from ascending id, so ties on score keep the
  // smallest id explicitly — the result the ascending scan would produce.
  const Span<uint32_t> sizes = dd_.size_sorted_sizes();
  const Span<DerivedId> ids = dd_.size_sorted_ids();
  const auto sizes_begin = sizes.begin() + static_cast<std::ptrdiff_t>(begin);
  const auto sizes_end = sizes.begin() + static_cast<std::ptrdiff_t>(end);
  const auto lo = std::lower_bound(
      sizes_begin, sizes_end, partner.lo,
      [](uint32_t y, size_t bound) { return y < bound; });
  const auto hi = std::upper_bound(
      lo, sizes_end, partner.hi,
      [](size_t bound, uint32_t y) { return bound < y; });
  for (auto it = lo; it != hi; ++it) {
    const DerivedId d = ids[static_cast<size_t>(it - sizes.begin())];
    const double weight = options_.weighted ? dd_.weight(d) : 1.0;
    const size_t y = *it;
    double effective_tau = tau;
    if (options_.weighted) {
      if (weight <= 0.0) continue;
      effective_tau = tau / weight;
      if (effective_tau > 1.0) continue;  // even sim = 1 cannot pass
    }
    const size_t required =
        RequiredOverlap(options_.metric, x, y, effective_tau);
    const size_t o =
        OverlapSizeAtLeast(dd_.ordered_set(d), substring_ordered_set, dict,
                           required);
    if (o == kOverlapBelow) continue;
    double s = SetSimilarity(options_.metric, o, y, x);
    if (options_.weighted) s *= weight;
    if (s > best.score ||
        (s == best.score && best.best_derived != JaccArScore::kNoDerived &&
         d < best.best_derived)) {
      best.score = s;
      best.best_derived = d;
    }
  }
  return best;
}

JaccArScore JaccArVerifier::BestAboveRanksPartner(
    EntityId e, const TokenRank* substring_ranks, size_t substring_size,
    double tau, const LengthRange& partner) const {
  JaccArScore best;
  const size_t x = substring_size;
  const auto [begin, end] = dd_.DerivedRange(e);
  const Span<uint32_t> sizes = dd_.size_sorted_sizes();
  const Span<DerivedId> ids = dd_.size_sorted_ids();
  const auto sizes_begin = sizes.begin() + static_cast<std::ptrdiff_t>(begin);
  const auto sizes_end = sizes.begin() + static_cast<std::ptrdiff_t>(end);
  // Binary-search the size-sorted index only when the range is big enough
  // to beat a straight scan (small fanouts dominate some dictionaries).
  auto lo = sizes_begin;
  auto hi = sizes_end;
  if (end - begin > 16) {
    lo = std::lower_bound(sizes_begin, sizes_end, partner.lo,
                          [](uint32_t y, size_t bound) { return y < bound; });
    hi = std::upper_bound(lo, sizes_end, partner.hi,
                          [](size_t bound, uint32_t y) { return bound < y; });
  } else {
    while (lo != hi && static_cast<size_t>(*lo) < partner.lo) ++lo;
    while (hi != lo && static_cast<size_t>(*(hi - 1)) > partner.hi) --hi;
  }
  // Origin-union bound. Every derived entity d in [lo, hi) is a subset of
  // U(e), so |d ∩ s| <= |U(e) ∩ s|; its requirement RequiredOverlap(x,
  // |d|, tau / weight(d)) is at least RequiredOverlap(x, *lo, tau), since
  // RequiredOverlap does not decrease in y or tau and weights lie in
  // (0, 1]. Missing that smallest requirement on the union therefore
  // means every merge below would abort: reject with one merge.
  if (static_cast<size_t>(hi - lo) >= DerivedDictionary::kUnionMinDerived) {
    const Span<TokenRank> u = dd_.origin_union(e);
    const size_t required =
        RequiredOverlap(options_.metric, x, static_cast<size_t>(*lo), tau);
    if (OverlapSizeAtLeastRanks(u.data(), u.size(), substring_ranks,
                                substring_size,
                                required) == kOverlapBelow) {
      best.bound_pruned = true;
      return best;
    }
  }
  const double dx = static_cast<double>(x);
  // Hoists RequiredOverlap's division out of the per-derived loop for the
  // common (unweighted Jaccard) configuration. The expression must stay
  // `tau / (1 + tau) * (dx + dy)` to the bit, so only the quotient moves.
  const bool fast_required =
      !options_.weighted && options_.metric == Metric::kJaccard;
  const double jacc_coeff = tau / (1.0 + tau);
  for (auto it = lo; it != hi; ++it) {
    const DerivedId d = ids[static_cast<size_t>(it - sizes.begin())];
    const size_t y = *it;
    double effective_tau = tau;
    if (options_.weighted) {
      const double weight = dd_.weight(d);
      if (weight <= 0.0) continue;
      effective_tau = tau / weight;
      if (effective_tau > 1.0) continue;  // even sim = 1 cannot pass
    }
    const size_t required =
        fast_required
            ? std::max<size_t>(
                  EpsCeil(jacc_coeff * (dx + static_cast<double>(y))), 1)
            : RequiredOverlap(options_.metric, x, y, effective_tau);
    const size_t o = OverlapSizeAtLeastRanks(
        dd_.derived_ranks(d), y, substring_ranks, substring_size, required);
    if (o == kOverlapBelow) continue;
    double s = SetSimilarity(options_.metric, o, y, x);
    if (options_.weighted) s *= dd_.weight(d);
    if (s > best.score ||
        (s == best.score && best.best_derived != JaccArScore::kNoDerived &&
         d < best.best_derived)) {
      best.score = s;
      best.best_derived = d;
    }
  }
  return best;
}

JaccArScore FuzzyJaccArVerifier::Score(
    EntityId e, const TokenSeq& substring_ordered_set) const {
  std::vector<std::string> texts;
  texts.reserve(substring_ordered_set.size());
  for (const TokenId t : substring_ordered_set) {
    texts.emplace_back(dd_.token_dict().Text(t));
  }
  return Score(e, texts);
}

JaccArScore FuzzyJaccArVerifier::Score(
    EntityId e, const std::vector<std::string>& substring_texts) const {
  JaccArScore best;
  const auto [begin, end] = dd_.DerivedRange(e);
  const TokenDictionary& dict = dd_.token_dict();
  std::vector<std::string> derived_texts;
  for (DerivedId d = begin; d < end; ++d) {
    derived_texts.clear();
    for (const TokenId t : dd_.ordered_set(d)) {
      derived_texts.emplace_back(dict.Text(t));
    }
    double s = fj_.Similarity(derived_texts, substring_texts);
    if (weighted_) s *= dd_.weight(d);
    if (s > best.score) {
      best.score = s;
      best.best_derived = d;
    }
  }
  return best;
}

bool JaccArVerifier::AtLeast(EntityId e, const TokenSeq& substring_ordered_set,
                             double tau) const {
  const auto [begin, end] = dd_.DerivedRange(e);
  const TokenDictionary& dict = dd_.token_dict();
  const LengthRange partner =
      PartnerLengthRange(options_.metric, substring_ordered_set.size(), tau);
  for (DerivedId d = begin; d < end; ++d) {
    const Span<TokenId> set = dd_.ordered_set(d);
    if (!partner.Contains(set.size())) continue;
    double s = SimilarityOnOrderedSets(options_.metric, set,
                                       substring_ordered_set, dict);
    if (options_.weighted) s *= dd_.weight(d);
    if (s >= tau) return true;
  }
  return false;
}

}  // namespace aeetes
