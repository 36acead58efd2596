#include "src/synonym/derived_dictionary.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/synonym/applicability.h"
#include "src/synonym/conflict.h"
#include "src/text/token_set.h"

namespace aeetes {

Result<DerivedDictParts> DerivedDictionary::BuildParts(
    std::vector<TokenSeq> entities, const RuleSet& rules,
    std::unique_ptr<TokenDictionary> dict,
    const DerivedDictionaryOptions& options) {
  if (entities.empty()) {
    return Status::InvalidArgument("entity dictionary must be non-empty");
  }
  if (dict == nullptr) {
    return Status::InvalidArgument("token dictionary must be non-null");
  }
  if (dict->frozen()) {
    return Status::FailedPrecondition(
        "token dictionary must not be frozen before Build");
  }
  for (const TokenSeq& e : entities) {
    if (e.empty()) {
      return Status::InvalidArgument("entities must be non-empty");
    }
    for (TokenId t : e) {
      if (t >= dict->size()) {
        return Status::OutOfRange("entity token not interned in dictionary");
      }
    }
  }

  DerivedDictParts parts;
  double derive_ms = 0.0;
  {
    ScopedTimer build_timer(nullptr, &derive_ms);
    parts.origins = std::move(entities);
    parts.dict = std::move(dict);
    parts.origin_begin.reserve(parts.origins.size() + 1);
    parts.origin_begin.push_back(0);

    size_t total_applicable = 0;
    BuildStats& bs = parts.stats;
    for (EntityId eid = 0; eid < parts.origins.size(); ++eid) {
      const TokenSeq& entity = parts.origins[eid];
      std::vector<RuleGroup> groups = SelectNonConflictGroups(
          FindApplicableRules(entity, rules), options.expander.clique_mode,
          &bs.clique_steps);
      total_applicable += TotalRules(groups);
      ExpandStats expand_stats;
      for (DerivedForm& form :
           ExpandEntity(entity, groups, options.expander, &expand_stats)) {
        DerivedEntity de;
        de.origin = eid;
        de.tokens = std::move(form.tokens);
        de.applied_rules = std::move(form.applied);
        de.weight = form.weight;
        parts.derived.push_back(std::move(de));
      }
      bs.expand_forms += expand_stats.forms_emitted;
      bs.expand_dedup_hits += expand_stats.dedup_hits;
      if (expand_stats.capped) ++bs.capped_entities;
      parts.origin_begin.push_back(
          static_cast<DerivedId>(parts.derived.size()));
    }
    parts.avg_applicable_rules = static_cast<double>(total_applicable) /
                                 static_cast<double>(parts.origins.size());

    // Global order O: token frequencies counted over the derived dictionary.
    for (const DerivedEntity& de : parts.derived) {
      for (TokenId t : de.tokens) {
        AEETES_RETURN_IF_ERROR(parts.dict->AddFrequency(t));
      }
    }
    parts.dict->Freeze();

    // Ordered sets become computable only now that ranks are stable.
    for (DerivedEntity& de : parts.derived) {
      de.ordered_set = BuildOrderedSet(de.tokens, *parts.dict);
    }
  }
  parts.stats.derive_ms = derive_ms;
  return parts;
}

Result<DerivedDictParts> DerivedDictionary::AssembleParts(
    std::vector<TokenSeq> origins, std::vector<DerivedEntity> derived,
    std::vector<DerivedId> origin_begin, std::unique_ptr<TokenDictionary> dict,
    double avg_applicable_rules) {
  if (origins.empty()) {
    return Status::InvalidArgument("origin dictionary must be non-empty");
  }
  if (dict == nullptr || !dict->frozen()) {
    return Status::InvalidArgument("token dictionary must be frozen");
  }
  if (origin_begin.size() != origins.size() + 1 || origin_begin.front() != 0 ||
      origin_begin.back() != derived.size()) {
    return Status::InvalidArgument("origin_begin table is inconsistent");
  }
  for (size_t i = 1; i < origin_begin.size(); ++i) {
    if (origin_begin[i] < origin_begin[i - 1]) {
      return Status::InvalidArgument("origin_begin must be non-decreasing");
    }
  }
  for (const TokenSeq& e : origins) {
    for (TokenId t : e) {
      if (t >= dict->size()) {
        return Status::OutOfRange("origin token not in dictionary");
      }
    }
  }
  for (const DerivedEntity& de : derived) {
    if (de.origin >= origins.size()) {
      return Status::OutOfRange("derived entity references unknown origin");
    }
    if (de.ordered_set.empty() || de.tokens.empty()) {
      return Status::InvalidArgument("derived entity missing tokens");
    }
    for (TokenId t : de.tokens) {
      if (t >= dict->size()) {
        return Status::OutOfRange("derived token not in dictionary");
      }
    }
    for (TokenId t : de.ordered_set) {
      if (t >= dict->size()) {
        return Status::OutOfRange("derived token not in dictionary");
      }
    }
  }
  DerivedDictParts parts;
  parts.origins = std::move(origins);
  parts.derived = std::move(derived);
  parts.origin_begin = std::move(origin_begin);
  parts.dict = std::move(dict);
  parts.avg_applicable_rules = avg_applicable_rules;
  return parts;
}

Result<std::unique_ptr<DerivedDictionary>> DerivedDictionary::Build(
    std::vector<TokenSeq> entities, const RuleSet& rules,
    std::unique_ptr<TokenDictionary> dict,
    const DerivedDictionaryOptions& options) {
  AEETES_ASSIGN_OR_RETURN(
      DerivedDictParts parts,
      BuildParts(std::move(entities), rules, std::move(dict), options));
  return PackStandalone(std::move(parts));
}

Result<std::unique_ptr<DerivedDictionary>> DerivedDictionary::FromParts(
    std::vector<TokenSeq> origins, std::vector<DerivedEntity> derived,
    std::vector<DerivedId> origin_begin, std::unique_ptr<TokenDictionary> dict,
    double avg_applicable_rules) {
  AEETES_ASSIGN_OR_RETURN(
      DerivedDictParts parts,
      AssembleParts(std::move(origins), std::move(derived),
                    std::move(origin_begin), std::move(dict),
                    avg_applicable_rules));
  return PackStandalone(std::move(parts));
}

Result<std::unique_ptr<DerivedDictionary>> DerivedDictionary::PackStandalone(
    DerivedDictParts parts) {
  ImageBuilder builder;
  AEETES_RETURN_IF_ERROR(AppendSections(parts, builder));
  AEETES_ASSIGN_OR_RETURN(AlignedBuffer buffer, builder.Finish());
  AEETES_ASSIGN_OR_RETURN(ImageView view, ImageView::Parse(buffer.bytes()));
  AEETES_ASSIGN_OR_RETURN(std::unique_ptr<TokenDictionary> dict,
                          TokenDictionary::WireFromImage(view));
  AEETES_ASSIGN_OR_RETURN(std::unique_ptr<DerivedDictionary> dd,
                          WireFromImage(view, std::move(dict)));
  dd->backing_ = std::move(buffer);
  dd->set_build_stats(parts.stats);
  return dd;
}

Status DerivedDictionary::AppendSections(const DerivedDictParts& parts,
                                         ImageBuilder& builder) {
  if (parts.dict == nullptr || !parts.dict->frozen()) {
    return Status::FailedPrecondition(
        "parts must carry a frozen token dictionary");
  }
  const size_t n0 = parts.origins.size();
  const size_t nd = parts.derived.size();
  if (parts.origin_begin.size() != n0 + 1 || parts.origin_begin.front() != 0 ||
      parts.origin_begin.back() != nd) {
    return Status::InvalidArgument("origin_begin table is inconsistent");
  }
  AEETES_RETURN_IF_ERROR(parts.dict->AppendSections(builder));

  img::Meta meta;
  meta.num_origins = n0;
  meta.num_derived = nd;
  meta.token_count = parts.dict->size();
  size_t mn = std::numeric_limits<size_t>::max();
  size_t mx = 0;
  for (const DerivedEntity& de : parts.derived) {
    mn = std::min(mn, de.ordered_set.size());
    mx = std::max(mx, de.ordered_set.size());
  }
  meta.min_set_size = nd == 0 ? 0 : mn;
  meta.max_set_size = mx;
  meta.avg_applicable_rules = parts.avg_applicable_rules;
  meta.num_rules = parts.rule_lines.size();

  builder.AddPod(img::kMeta, meta);
  builder.AddVector(img::kOriginDerivedBegin, parts.origin_begin);

  // Each group's flattened arrays are freed as soon as the builder holds
  // its copy, so packing never keeps two copies of every section alive.
  {
    // Origin entities, flattened.
    std::vector<uint64_t> origin_token_begin(n0 + 1);
    std::vector<TokenId> origin_tokens;
    for (size_t e = 0; e < n0; ++e) {
      origin_token_begin[e] = origin_tokens.size();
      origin_tokens.insert(origin_tokens.end(), parts.origins[e].begin(),
                           parts.origins[e].end());
    }
    origin_token_begin[n0] = origin_tokens.size();
    builder.AddVector(img::kOriginTokenBegin, origin_token_begin);
    builder.AddVector(img::kOriginTokens, origin_tokens);
  }
  {
    // Derived entities, flattened into parallel arrays + offset tables.
    std::vector<EntityId> derived_origin(nd);
    std::vector<double> derived_weight(nd);
    std::vector<uint64_t> token_begin(nd + 1);
    std::vector<uint64_t> set_begin(nd + 1);
    std::vector<uint64_t> rule_begin(nd + 1);
    std::vector<TokenId> tokens;
    std::vector<TokenId> set_tokens;
    std::vector<RuleId> rules;
    for (size_t d = 0; d < nd; ++d) {
      const DerivedEntity& de = parts.derived[d];
      derived_origin[d] = de.origin;
      derived_weight[d] = de.weight;
      token_begin[d] = tokens.size();
      tokens.insert(tokens.end(), de.tokens.begin(), de.tokens.end());
      set_begin[d] = set_tokens.size();
      set_tokens.insert(set_tokens.end(), de.ordered_set.begin(),
                        de.ordered_set.end());
      rule_begin[d] = rules.size();
      rules.insert(rules.end(), de.applied_rules.begin(),
                   de.applied_rules.end());
    }
    token_begin[nd] = tokens.size();
    set_begin[nd] = set_tokens.size();
    rule_begin[nd] = rules.size();
    builder.AddVector(img::kDerivedOrigin, derived_origin);
    builder.AddVector(img::kDerivedWeight, derived_weight);
    builder.AddVector(img::kDerivedTokenBegin, token_begin);
    builder.AddVector(img::kDerivedTokens, tokens);
    builder.AddVector(img::kDerivedSetBegin, set_begin);
    builder.AddVector(img::kDerivedSetTokens, set_tokens);
    builder.AddVector(img::kDerivedRuleBegin, rule_begin);
    builder.AddVector(img::kDerivedRules, rules);
  }
  {
    // Per-origin size-sorted index: ascending ordered-set size, ties by id
    // (the ordering BestAbove* binary-searches).
    std::vector<DerivedId> size_ids(nd);
    std::iota(size_ids.begin(), size_ids.end(), DerivedId{0});
    for (size_t e = 0; e < n0; ++e) {
      std::sort(size_ids.begin() +
                    static_cast<std::ptrdiff_t>(parts.origin_begin[e]),
                size_ids.begin() +
                    static_cast<std::ptrdiff_t>(parts.origin_begin[e + 1]),
                [&parts](DerivedId a, DerivedId b) {
                  const size_t sa = parts.derived[a].ordered_set.size();
                  const size_t sb = parts.derived[b].ordered_set.size();
                  if (sa != sb) return sa < sb;
                  return a < b;
                });
    }
    std::vector<uint32_t> size_sizes(nd);
    for (size_t i = 0; i < nd; ++i) {
      size_sizes[i] = static_cast<uint32_t>(
          parts.derived[size_ids[i]].ordered_set.size());
    }
    builder.AddVector(img::kSizeSortedIds, size_ids);
    builder.AddVector(img::kSizeSortedSizes, size_sizes);
  }
  {
    // Materialized rank arena (ascending within each derived entity).
    std::vector<uint64_t> ranks_begin(nd + 1);
    std::vector<TokenRank> ranks;
    for (size_t d = 0; d < nd; ++d) {
      ranks_begin[d] = ranks.size();
      for (TokenId t : parts.derived[d].ordered_set) {
        ranks.push_back(parts.dict->Rank(t));
      }
    }
    ranks_begin[nd] = ranks.size();

    // Per-origin rank union U(e), merged from the already-ascending rank
    // runs of the origin's derived entities (no re-sort). Derived entities
    // of one origin share most tokens, so a per-token stamp of the current
    // origin picks each run's ranks not yet in U(e) (still ascending) and
    // only those are merged in, backwards, in place. A first pass counts
    // each union's distinct tokens so the arena is allocated once at its
    // exact size. Origins below kUnionMinDerived keep an empty union: the
    // verifier never consults it.
    std::vector<uint32_t> stamp(parts.dict->size(), 0);
    uint32_t mark = 0;
    const auto has_union = [&parts](size_t e) {
      return parts.origin_begin[e + 1] - parts.origin_begin[e] >=
             kUnionMinDerived;
    };
    std::vector<uint64_t> union_begin(n0 + 1);
    uint64_t union_size = 0;
    for (size_t e = 0; e < n0; ++e) {
      union_begin[e] = union_size;
      if (!has_union(e)) continue;
      ++mark;
      for (size_t d = parts.origin_begin[e]; d < parts.origin_begin[e + 1];
           ++d) {
        for (const TokenId t : parts.derived[d].ordered_set) {
          if (stamp[t] != mark) {
            stamp[t] = mark;
            ++union_size;
          }
        }
      }
    }
    union_begin[n0] = union_size;
    std::vector<TokenRank> union_ranks(union_size);
    std::vector<TokenRank> fresh;
    for (size_t e = 0; e < n0; ++e) {
      if (!has_union(e)) continue;
      ++mark;
      TokenRank* u = union_ranks.data() + union_begin[e];
      size_t len = 0;
      for (size_t d = parts.origin_begin[e]; d < parts.origin_begin[e + 1];
           ++d) {
        const TokenSeq& set = parts.derived[d].ordered_set;
        fresh.clear();
        for (size_t i = 0; i < set.size(); ++i) {
          if (stamp[set[i]] == mark) continue;
          stamp[set[i]] = mark;
          fresh.push_back(ranks[ranks_begin[d] + i]);
        }
        size_t i = len;
        size_t j = fresh.size();
        len += fresh.size();
        for (size_t k = len; j > 0;) {
          u[--k] = (i > 0 && u[i - 1] > fresh[j - 1]) ? u[--i] : fresh[--j];
        }
      }
    }
    builder.AddVector(img::kRanksBegin, ranks_begin);
    builder.AddVector(img::kRanksArena, ranks);
    builder.AddVector(img::kOriginUnionBegin, union_begin);
    builder.AddVector(img::kOriginUnionRanks, union_ranks);
  }
  {
    // Rule lines, flattened like the dictionary's token texts.
    std::vector<uint64_t> rule_text_begin;
    std::vector<char> rule_text;
    for (const std::string& line : parts.rule_lines) {
      rule_text_begin.push_back(rule_text.size());
      rule_text.insert(rule_text.end(), line.begin(), line.end());
    }
    rule_text_begin.push_back(rule_text.size());
    builder.AddVector(img::kRuleTextBegin, rule_text_begin);
    builder.AddVector(img::kRuleTextBlob, rule_text);
  }
  return Status::OK();
}

namespace {

/// Checks one prefix-offset table: size n+1, starts at 0, non-decreasing,
/// ends exactly at `payload` elements.
Status CheckBeginTable(Span<uint64_t> table, size_t n, size_t payload,
                       const char* what) {
  if (table.size() != n + 1) {
    return Status::IOError(std::string("engine image: ") + what +
                           " table has wrong size");
  }
  if (table[0] != 0 || table[n] != payload) {
    return Status::IOError(std::string("engine image: ") + what +
                           " table does not cover its payload");
  }
  for (size_t i = 1; i <= n; ++i) {
    if (table[i] < table[i - 1]) {
      return Status::IOError(std::string("engine image: ") + what +
                             " table not monotonic");
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<DerivedDictionary>> DerivedDictionary::WireFromImage(
    const ImageView& view, std::unique_ptr<TokenDictionary> dict) {
  if (dict == nullptr || !dict->frozen()) {
    return Status::InvalidArgument("wired token dictionary must be frozen");
  }
  AEETES_ASSIGN_OR_RETURN(const img::Meta meta,
                          view.pod<img::Meta>(img::kMeta));
  const size_t n0 = static_cast<size_t>(meta.num_origins);
  const size_t nd = static_cast<size_t>(meta.num_derived);
  const size_t token_count = static_cast<size_t>(meta.token_count);
  if (n0 == 0) {
    return Status::IOError("engine image: no origin entities");
  }
  if (token_count != dict->size()) {
    return Status::IOError("engine image: meta token count disagrees with "
                           "dictionary sections");
  }

  auto dd = std::unique_ptr<DerivedDictionary>(new DerivedDictionary());
  AEETES_ASSIGN_OR_RETURN(dd->origin_token_begin_,
                          view.array<uint64_t>(img::kOriginTokenBegin));
  AEETES_ASSIGN_OR_RETURN(dd->origin_tokens_,
                          view.array<TokenId>(img::kOriginTokens));
  AEETES_ASSIGN_OR_RETURN(dd->derived_origin_,
                          view.array<EntityId>(img::kDerivedOrigin));
  AEETES_ASSIGN_OR_RETURN(dd->derived_weight_,
                          view.array<double>(img::kDerivedWeight));
  AEETES_ASSIGN_OR_RETURN(dd->derived_token_begin_,
                          view.array<uint64_t>(img::kDerivedTokenBegin));
  AEETES_ASSIGN_OR_RETURN(dd->derived_tokens_,
                          view.array<TokenId>(img::kDerivedTokens));
  AEETES_ASSIGN_OR_RETURN(dd->derived_set_begin_,
                          view.array<uint64_t>(img::kDerivedSetBegin));
  AEETES_ASSIGN_OR_RETURN(dd->derived_set_tokens_,
                          view.array<TokenId>(img::kDerivedSetTokens));
  AEETES_ASSIGN_OR_RETURN(dd->derived_rule_begin_,
                          view.array<uint64_t>(img::kDerivedRuleBegin));
  AEETES_ASSIGN_OR_RETURN(dd->derived_rules_,
                          view.array<RuleId>(img::kDerivedRules));
  AEETES_ASSIGN_OR_RETURN(dd->origin_begin_,
                          view.array<DerivedId>(img::kOriginDerivedBegin));
  AEETES_ASSIGN_OR_RETURN(dd->size_sorted_ids_,
                          view.array<DerivedId>(img::kSizeSortedIds));
  AEETES_ASSIGN_OR_RETURN(dd->size_sorted_sizes_,
                          view.array<uint32_t>(img::kSizeSortedSizes));
  AEETES_ASSIGN_OR_RETURN(dd->ranks_begin_,
                          view.array<uint64_t>(img::kRanksBegin));
  AEETES_ASSIGN_OR_RETURN(dd->ranks_arena_,
                          view.array<TokenRank>(img::kRanksArena));
  AEETES_ASSIGN_OR_RETURN(dd->union_begin_,
                          view.array<uint64_t>(img::kOriginUnionBegin));
  AEETES_ASSIGN_OR_RETURN(dd->union_ranks_,
                          view.array<TokenRank>(img::kOriginUnionRanks));
  AEETES_ASSIGN_OR_RETURN(dd->rule_text_begin_,
                          view.array<uint64_t>(img::kRuleTextBegin));
  AEETES_ASSIGN_OR_RETURN(dd->rule_text_,
                          view.array<char>(img::kRuleTextBlob));

  // Shape checks: every offset table well-formed, every id in range. The
  // serving path subscripts these spans with at most debug-only checks, so
  // this is the release-build firewall against corrupt or hostile images.
  AEETES_RETURN_IF_ERROR(CheckBeginTable(dd->origin_token_begin_, n0,
                                         dd->origin_tokens_.size(),
                                         "origin token"));
  AEETES_RETURN_IF_ERROR(CheckBeginTable(dd->derived_token_begin_, nd,
                                         dd->derived_tokens_.size(),
                                         "derived token"));
  AEETES_RETURN_IF_ERROR(CheckBeginTable(dd->derived_set_begin_, nd,
                                         dd->derived_set_tokens_.size(),
                                         "ordered set"));
  AEETES_RETURN_IF_ERROR(CheckBeginTable(dd->derived_rule_begin_, nd,
                                         dd->derived_rules_.size(),
                                         "applied rule"));
  AEETES_RETURN_IF_ERROR(CheckBeginTable(dd->union_begin_, n0,
                                         dd->union_ranks_.size(),
                                         "origin union"));
  AEETES_RETURN_IF_ERROR(
      CheckBeginTable(dd->rule_text_begin_,
                      static_cast<size_t>(meta.num_rules),
                      dd->rule_text_.size(), "rule text"));
  if (dd->derived_origin_.size() != nd || dd->derived_weight_.size() != nd ||
      dd->size_sorted_ids_.size() != nd ||
      dd->size_sorted_sizes_.size() != nd) {
    return Status::IOError("engine image: derived array sizes disagree");
  }
  if (dd->origin_begin_.size() != n0 + 1 || dd->origin_begin_[0] != 0 ||
      dd->origin_begin_[n0] != nd) {
    return Status::IOError("engine image: origin_begin table inconsistent");
  }
  for (size_t e = 1; e <= n0; ++e) {
    if (dd->origin_begin_[e] < dd->origin_begin_[e - 1]) {
      return Status::IOError("engine image: origin_begin not monotonic");
    }
  }
  for (const TokenId t : dd->origin_tokens_) {
    if (t >= token_count) {
      return Status::IOError("engine image: origin token out of range");
    }
  }
  for (const TokenId t : dd->derived_tokens_) {
    if (t >= token_count) {
      return Status::IOError("engine image: derived token out of range");
    }
  }
  for (const EntityId origin : dd->derived_origin_) {
    if (origin >= n0) {
      return Status::IOError("engine image: derived origin out of range");
    }
  }

  // Ordered sets and the rank arena must agree exactly: verification
  // merges assume strictly ascending ranks that match dict->Rank of the
  // set tokens position by position.
  AEETES_RETURN_IF_ERROR(CheckBeginTable(dd->ranks_begin_, nd,
                                         dd->ranks_arena_.size(), "rank"));
  size_t mn = std::numeric_limits<size_t>::max();
  size_t mx = 0;
  for (size_t d = 0; d < nd; ++d) {
    const size_t set_begin = static_cast<size_t>(dd->derived_set_begin_[d]);
    const size_t set_end = static_cast<size_t>(dd->derived_set_begin_[d + 1]);
    const size_t set_size = set_end - set_begin;
    if (set_size == 0 ||
        dd->derived_token_begin_[d + 1] == dd->derived_token_begin_[d]) {
      return Status::IOError("engine image: derived entity missing tokens");
    }
    if (static_cast<size_t>(dd->ranks_begin_[d + 1] - dd->ranks_begin_[d]) !=
        set_size) {
      return Status::IOError("engine image: rank arena size mismatch");
    }
    const size_t rank_begin = static_cast<size_t>(dd->ranks_begin_[d]);
    TokenRank prev = 0;
    for (size_t i = 0; i < set_size; ++i) {
      const TokenId t = dd->derived_set_tokens_[set_begin + i];
      const TokenRank r = dd->ranks_arena_[rank_begin + i];
      if (t >= token_count) {
        return Status::IOError("engine image: ordered-set token out of "
                               "range");
      }
      if (r != dict->Rank(t)) {
        return Status::IOError("engine image: rank arena disagrees with "
                               "dictionary");
      }
      if (i > 0 && r <= prev) {
        return Status::IOError("engine image: ordered set not rank-sorted");
      }
      prev = r;
    }
    mn = std::min(mn, set_size);
    mx = std::max(mx, set_size);
  }
  if (nd == 0) mn = 0;
  if (mn != meta.min_set_size || mx != meta.max_set_size) {
    return Status::IOError("engine image: set-size bounds disagree with "
                           "meta");
  }

  // Size-sorted index: within each origin range, strictly increasing
  // (size, id) pairs of in-range ids whose sizes match the ordered sets.
  // Strict ordering + in-range + counting out gives a permutation proof
  // without scratch memory.
  for (size_t e = 0; e < n0; ++e) {
    const size_t begin = dd->origin_begin_[e];
    const size_t end = dd->origin_begin_[e + 1];
    for (size_t i = begin; i < end; ++i) {
      const DerivedId id = dd->size_sorted_ids_[i];
      if (id < begin || id >= end) {
        return Status::IOError("engine image: size index id outside its "
                               "origin range");
      }
      const uint32_t sz = dd->size_sorted_sizes_[i];
      if (sz != static_cast<uint32_t>(dd->derived_set_begin_[id + 1] -
                                      dd->derived_set_begin_[id])) {
        return Status::IOError("engine image: size index size mismatch");
      }
      if (i > begin) {
        const DerivedId prev_id = dd->size_sorted_ids_[i - 1];
        const uint32_t prev_sz = dd->size_sorted_sizes_[i - 1];
        if (prev_sz > sz || (prev_sz == sz && prev_id >= id)) {
          return Status::IOError("engine image: size index not sorted");
        }
      }
    }
  }

  // Origin unions: strictly ascending valid token ranks and, wherever the
  // verifier may consult them (kUnionMinDerived or more derived entities),
  // a superset of every derived entity's ranks, so the union bound never
  // rejects a pair some derived entity would pass. Extra ranks only weaken
  // the bound; missing ones would silently drop true matches. Containment
  // is checked in one pass with a per-token stamp of the current origin
  // (a rank's low 32 bits are its token id; see TokenDictionary::Rank).
  std::vector<uint32_t> stamp(token_count, 0);
  for (size_t e = 0; e < n0; ++e) {
    const uint32_t mark = static_cast<uint32_t>(e) + 1;
    const Span<TokenRank> u = dd->origin_union(static_cast<EntityId>(e));
    for (size_t i = 0; i < u.size(); ++i) {
      if (i > 0 && u[i] <= u[i - 1]) {
        return Status::IOError("engine image: origin union not strictly "
                               "ascending");
      }
      const TokenId t = static_cast<TokenId>(u[i]);
      if (t >= token_count || dict->Rank(t) != u[i]) {
        return Status::IOError("engine image: origin union holds an "
                               "invalid rank");
      }
      stamp[t] = mark;
    }
    if (dd->origin_begin_[e + 1] - dd->origin_begin_[e] < kUnionMinDerived) {
      continue;
    }
    for (size_t i = dd->derived_set_begin_[dd->origin_begin_[e]];
         i < dd->derived_set_begin_[dd->origin_begin_[e + 1]]; ++i) {
      if (stamp[dd->derived_set_tokens_[i]] != mark) {
        return Status::IOError("engine image: origin union misses a "
                               "derived entity's rank");
      }
    }
  }

  dd->dict_ = std::move(dict);
  dd->num_origins_ = n0;
  dd->num_derived_ = nd;
  dd->min_set_size_ = mn;
  dd->max_set_size_ = mx;
  dd->avg_applicable_rules_ = meta.avg_applicable_rules;
  return dd;
}

Result<DerivedDictParts> DerivedDictionary::ToParts() const {
  DerivedDictParts parts;
  parts.origins.reserve(num_origins_);
  for (EntityId e = 0; e < num_origins_; ++e) {
    const Span<TokenId> tokens = origin_entity(e);
    parts.origins.emplace_back(tokens.begin(), tokens.end());
  }
  parts.derived.reserve(num_derived_);
  for (DerivedId d = 0; d < num_derived_; ++d) {
    const DerivedView v = derived(d);
    DerivedEntity de;
    de.origin = v.origin;
    de.weight = v.weight;
    de.tokens.assign(v.tokens.begin(), v.tokens.end());
    de.ordered_set.assign(v.ordered_set.begin(), v.ordered_set.end());
    de.applied_rules.assign(v.applied_rules.begin(), v.applied_rules.end());
    parts.derived.push_back(std::move(de));
  }
  parts.origin_begin.assign(origin_begin_.begin(), origin_begin_.end());

  // Clone the dictionary in id order so the repacked image is
  // self-contained.
  auto dict = std::make_unique<TokenDictionary>();
  for (size_t t = 0; t < dict_->size(); ++t) {
    const TokenId id = dict->GetOrAdd(dict_->Text(static_cast<TokenId>(t)));
    AEETES_CHECK_EQ(static_cast<size_t>(id), t)
        << "token dictionary clone out of order";
    const uint64_t freq = dict_->frequency(static_cast<TokenId>(t));
    if (freq > 0) {
      AEETES_RETURN_IF_ERROR(dict->AddFrequency(id, freq));
    }
  }
  dict->Freeze();
  parts.dict = std::move(dict);
  parts.avg_applicable_rules = avg_applicable_rules_;
  parts.rule_lines = rule_lines();
  parts.stats = build_stats_;
  return parts;
}

std::vector<std::string> DerivedDictionary::rule_lines() const {
  std::vector<std::string> lines;
  lines.reserve(rule_text_begin_.size() - 1);
  for (size_t i = 0; i + 1 < rule_text_begin_.size(); ++i) {
    const Span<char> text = SliceU64(rule_text_, rule_text_begin_,
                                     static_cast<uint32_t>(i));
    lines.emplace_back(text.begin(), text.end());
  }
  return lines;
}

}  // namespace aeetes
