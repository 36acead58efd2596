#include "src/baseline/faerie.h"

#include <algorithm>
#include <tuple>

#include "src/text/token_set.h"

namespace aeetes {

Result<std::unique_ptr<Faerie>> Faerie::Build(
    std::vector<TokenSeq> entities, std::shared_ptr<const TokenDictionary> dict,
    Options options) {
  if (entities.empty()) {
    return Status::InvalidArgument("entity dictionary must be non-empty");
  }
  if (dict == nullptr) {
    return Status::InvalidArgument("token dictionary must be non-null");
  }
  if (!dict->frozen()) {
    return Status::FailedPrecondition("token dictionary must be frozen");
  }
  auto f = std::unique_ptr<Faerie>(new Faerie());
  f->options_ = options;
  f->dict_ = std::move(dict);

  f->entity_sets_.reserve(entities.size());
  f->min_set_size_ = static_cast<size_t>(-1);
  std::vector<std::pair<TokenId, uint32_t>> pairs;  // (token, entity)
  for (uint32_t e = 0; e < entities.size(); ++e) {
    if (entities[e].empty()) {
      return Status::InvalidArgument("entities must be non-empty");
    }
    TokenSeq set = BuildOrderedSet(entities[e], *f->dict_);
    f->min_set_size_ = std::min(f->min_set_size_, set.size());
    f->max_set_size_ = std::max(f->max_set_size_, set.size());
    for (TokenId t : set) pairs.emplace_back(t, e);
    f->entity_sets_.push_back(std::move(set));
  }
  std::sort(pairs.begin(), pairs.end());

  const size_t vocab = f->dict_->size();
  f->list_begin_.assign(vocab + 1, 0);
  for (const auto& [t, e] : pairs) ++f->list_begin_[t + 1];
  for (size_t i = 1; i <= vocab; ++i) f->list_begin_[i] += f->list_begin_[i - 1];
  f->postings_.resize(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) f->postings_[i] = pairs[i].second;
  return f;
}

std::vector<Faerie::FaerieMatch> Faerie::Extract(const Document& doc,
                                                 double tau,
                                                 Stats* stats) const {
  std::vector<FaerieMatch> matches;
  const size_t n = doc.size();
  if (n == 0) return matches;

  // Phase 1 (heap-merge equivalent): per-entity sorted position lists.
  std::vector<std::vector<uint32_t>> positions(entity_sets_.size());
  std::vector<uint32_t> touched;
  for (size_t i = 0; i < n; ++i) {
    const TokenId t = doc.tokens()[i];
    if (t + 1 >= list_begin_.size()) continue;  // token unseen at Build time
    for (uint32_t k = list_begin_[t]; k < list_begin_[t + 1]; ++k) {
      const uint32_t e = postings_[k];
      if (positions[e].empty()) touched.push_back(e);
      positions[e].push_back(static_cast<uint32_t>(i));
      if (stats) ++stats->position_entries;
    }
  }
  std::sort(touched.begin(), touched.end());

  // Phase 2: count filter via the span technique with binary shift.
  const Options& opts = options_;
  // Window lengths are enumerated up to the same global bound the AEES
  // problem definition uses: a window longer than an entity's own partner
  // range can still match it when duplicate tokens shrink its distinct set.
  const LengthRange global_len =
      SubstringLengthBounds(opts.metric, min_set_size_, max_set_size_, tau);
  TokenSeq window_set;
  for (uint32_t e : touched) {
    const std::vector<uint32_t>& pos = positions[e];
    const size_t m = entity_sets_[e].size();
    const LengthRange lens = PartnerLengthRange(opts.metric, m, tau);
    const size_t max_len = std::min<size_t>(global_len.hi, n);
    // Similarity is computed on the *distinct* token set of a window, which
    // can be smaller than the window length when tokens repeat. The sound
    // count threshold therefore uses the smallest admissible set size
    // (lens.lo), not the window length: a larger per-length threshold would
    // wrongly drop windows padded with duplicate tokens.
    const size_t T = RequiredOverlap(opts.metric, m, lens.lo, tau);
    if (pos.size() < T) continue;
    for (size_t l = lens.lo; l <= max_len; ++l) {
      long last_emitted = -1;
      size_t a = 0;
      while (a + T <= pos.size()) {
        if (stats) ++stats->spans_probed;
        const size_t b = a + T - 1;
        const uint32_t span = pos[b] - pos[a] + 1;
        if (span <= l) {
          // Every window of length l covering pos[a..b] is a candidate.
          const long lo = std::max<long>(
              {0L, static_cast<long>(pos[b]) - static_cast<long>(l) + 1,
               last_emitted + 1});
          const long hi = std::min<long>(static_cast<long>(pos[a]),
                                         static_cast<long>(n - l));
          for (long p = lo; p <= hi; ++p) {
            if (stats) ++stats->candidates;
            TokenSeq slice(doc.tokens().begin() + p,
                           doc.tokens().begin() + p + static_cast<long>(l));
            window_set = BuildOrderedSet(slice, *dict_);
            const size_t o = OverlapSize(window_set, entity_sets_[e], *dict_);
            const double score =
                SetSimilarity(opts.metric, o, window_set.size(), m);
            if (stats) ++stats->verified;
            if (ScorePasses(score, tau)) {
              matches.push_back(FaerieMatch{static_cast<uint32_t>(p),
                                            static_cast<uint32_t>(l), e,
                                            score});
            }
            last_emitted = std::max(last_emitted, p);
          }
          ++a;
        } else {
          // Binary shift: the next viable a must have pos[a'] >=
          // pos[b] - l + 1.
          const uint32_t target = pos[b] - static_cast<uint32_t>(l) + 1;
          const auto it =
              std::lower_bound(pos.begin() + static_cast<long>(a) + 1,
                               pos.end(), target);
          a = static_cast<size_t>(it - pos.begin());
        }
      }
    }
  }
  std::sort(matches.begin(), matches.end(),
            [](const FaerieMatch& x, const FaerieMatch& y) {
              return std::tie(x.token_begin, x.token_len, x.entity) <
                     std::tie(y.token_begin, y.token_len, y.entity);
            });
  return matches;
}

size_t Faerie::MemoryBytes() const {
  size_t bytes = postings_.capacity() * sizeof(uint32_t) +
                 list_begin_.capacity() * sizeof(uint32_t);
  for (const TokenSeq& s : entity_sets_) {
    bytes += s.capacity() * sizeof(TokenId);
  }
  return bytes;
}

}  // namespace aeetes
