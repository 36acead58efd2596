#include "src/core/candidate_generator.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/span.h"
#include "src/core/scratch.h"
#include "src/core/window.h"

namespace aeetes {

const char* FilterStrategyName(FilterStrategy s) {
  switch (s) {
    case FilterStrategy::kSimple:
      return "Simple";
    case FilterStrategy::kSkip:
      return "Skip";
    case FilterStrategy::kDynamic:
      return "Dynamic";
    case FilterStrategy::kLazy:
      return "Lazy";
  }
  return "?";
}

namespace {

struct ProbeContext {
  const Document& doc;
  const DerivedDictionary& dd;
  const ClusteredIndex& index;
  double tau;
  Metric metric;
  CandidateGenOptions opts;
  std::vector<Candidate>* candidates;
  FilterStats* stats;
  OriginTracker* tracker;
};

/// Positional filter admission for a shared token at prefix index `k` of
/// the window (set size `set_size`) and ordered-set position `j` of a
/// derived entity of size `entity_len`. Always true when the filter is
/// disabled.
bool PositionalAdmit(const ProbeContext& ctx, size_t set_size, size_t k,
                     size_t entity_len, size_t j) {
  if (!ctx.opts.positional_filter) return true;
  const size_t required =
      RequiredOverlap(ctx.metric, set_size, entity_len, ctx.tau);
  const size_t upper =
      1 + std::min(set_size - k - 1, entity_len - j - 1);
  if (upper >= required) return true;
  ++ctx.stats->positional_pruned;
  return false;
}

/// Scans L[t] for one substring without any batch skipping (Simple): every
/// posting entry is touched; length and prefix filters are evaluated per
/// entry.
void ProbeFlat(const ProbeContext& ctx, TokenId t, size_t k, uint32_t pos,
               uint32_t len, size_t set_size, const LengthRange& partner) {
  const auto list = ctx.index.list(t);
  const Span<LengthGroup> lgs(ctx.index.length_groups());
  const Span<OriginGroup> ogs(ctx.index.origin_groups());
  const Span<PostingEntry> entries(ctx.index.entries());
  AEETES_DCHECK_LE(list.end, lgs.size());
  FilterStats& st = *ctx.stats;
  for (uint32_t g = list.begin; g < list.end; ++g) {
    const LengthGroup& lg = lgs[g];
    const size_t prefix_len = PrefixLength(ctx.metric, lg.length, ctx.tau);
    AEETES_DCHECK_LE(lg.end, ogs.size());
    for (uint32_t og = lg.begin; og < lg.end; ++og) {
      const OriginGroup& origin_group = ogs[og];
      AEETES_DCHECK_LE(origin_group.end, entries.size());
      for (uint32_t i = origin_group.begin; i < origin_group.end; ++i) {
        ++st.entries_accessed;
        if (!partner.Contains(lg.length)) continue;
        if (entries[i].pos >= prefix_len) continue;
        if (!PositionalAdmit(ctx, set_size, k, lg.length, entries[i].pos)) {
          continue;
        }
        if (ctx.tracker->Mark(origin_group.origin)) {
          ctx.candidates->push_back(
              Candidate{pos, len, origin_group.origin});
          ++st.candidates;
        }
      }
    }
  }
}

/// Scans L[t] for one substring with clustered batch skipping (Skip):
/// length groups failing the length filter are skipped without touching
/// their entries; origin groups whose origin is already a candidate of
/// this substring are skipped likewise.
void ProbeSkip(const ProbeContext& ctx, TokenId t, size_t k, uint32_t pos,
               uint32_t len, size_t set_size, const LengthRange& partner) {
  const auto list = ctx.index.list(t);
  const Span<LengthGroup> lgs(ctx.index.length_groups());
  const Span<OriginGroup> ogs(ctx.index.origin_groups());
  const Span<PostingEntry> entries(ctx.index.entries());
  AEETES_DCHECK_LE(list.end, lgs.size());
  FilterStats& st = *ctx.stats;
  for (uint32_t g = list.begin; g < list.end; ++g) {
    const LengthGroup& lg = lgs[g];
    if (!partner.Contains(lg.length)) {
      ++st.length_groups_skipped;
      continue;
    }
    const size_t prefix_len = PrefixLength(ctx.metric, lg.length, ctx.tau);
    for (uint32_t og = lg.begin; og < lg.end; ++og) {
      const OriginGroup& origin_group = ogs[og];
      if (ctx.tracker->IsCandidate(origin_group.origin)) {
        ++st.origin_groups_skipped;
        continue;
      }
      for (uint32_t i = origin_group.begin; i < origin_group.end; ++i) {
        ++st.entries_accessed;
        if (entries[i].pos >= prefix_len) continue;
        if (!PositionalAdmit(ctx, set_size, k, lg.length, entries[i].pos)) {
          continue;
        }
        ctx.tracker->Mark(origin_group.origin);
        ctx.candidates->push_back(
            Candidate{pos, len, origin_group.origin});
        ++st.candidates;
        break;  // rest of this origin group is redundant
      }
    }
  }
}

/// Probes the index for the current window state.
void ProbeWindow(const ProbeContext& ctx, const SlidingWindow& win,
                 bool batch_skip) {
  FilterStats& st = *ctx.stats;
  ++st.substrings;
  ctx.tracker->NextSubstring();
  const size_t set_size = win.set_size();
  if (set_size == 0) return;
  const LengthRange partner =
      PartnerLengthRange(ctx.metric, set_size, ctx.tau);
  const size_t prefix_len = PrefixLength(ctx.metric, set_size, ctx.tau);
  for (size_t k = 0; k < prefix_len; ++k) {
    const TokenId t = win.DistinctToken(k);
    if (ctx.index.list(t).empty()) continue;  // invalid or unindexed token
    if (batch_skip) {
      ProbeSkip(ctx, t, k, static_cast<uint32_t>(win.pos()),
                static_cast<uint32_t>(win.len()), set_size, partner);
    } else {
      ProbeFlat(ctx, t, k, static_cast<uint32_t>(win.pos()),
                static_cast<uint32_t>(win.len()), set_size, partner);
    }
  }
}

/// Simple and Skip: enumerate every substring, rebuild its prefix from
/// scratch (Section 4's "straightforward solution"). Uses states[0] as the
/// one window state so its slot buffer is reused across documents.
void GenerateEnumerated(const ProbeContext& ctx, const LengthRange& win_len,
                        bool batch_skip,
                        std::vector<SlidingWindow>& states) {
  const size_t n = ctx.doc.size();
  if (states.empty()) states.emplace_back();
  SlidingWindow& win = states[0];
  win.Attach(ctx.doc, ctx.dd.token_dict());
  FilterStats& st = *ctx.stats;
  for (size_t p = 0; p < n; ++p) {
    if (p + win_len.lo > n) break;
    ++st.windows;
    const size_t max_len = std::min<size_t>(win_len.hi, n - p);
    for (size_t l = win_len.lo; l <= max_len; ++l) {
      win.Reset(p, l);
      ++st.prefix_rebuilds;
      ProbeWindow(ctx, win, batch_skip);
    }
  }
}

/// Builds the per-length window states for position 0 into the first
/// elements of `states`: the shortest window from scratch, each longer one
/// by Window Extend from a copy. Returns the number of states in use;
/// elements are reused across calls (copy-assignment preserves the slot
/// buffers' capacity), never destroyed.
size_t InitialWindows(const ProbeContext& ctx, const LengthRange& win_len,
                      std::vector<SlidingWindow>& states) {
  const size_t n = ctx.doc.size();
  FilterStats& st = *ctx.stats;
  size_t used = 0;
  // May reallocate `states`: take element references only after acquiring.
  auto acquire = [&]() -> SlidingWindow& {
    if (used == states.size()) states.emplace_back();
    SlidingWindow& w = states[used++];
    w.Attach(ctx.doc, ctx.dd.token_dict());
    return w;
  };
  if (win_len.lo > n) return 0;
  acquire().Reset(0, win_len.lo);
  ++st.prefix_rebuilds;
  for (size_t l = win_len.lo + 1; l <= std::min<size_t>(win_len.hi, n); ++l) {
    SlidingWindow& next = acquire();
    next = states[used - 2];
    if (!next.Extend()) {
      --used;
      break;
    }
    ++st.prefix_updates;
  }
  return used;
}

/// Scans L[t] once for a given substring set size, filling `hits` with
/// every origin whose postings pass the length and prefix filters. The
/// result depends only on (t, set_size, tau), never on the substring
/// position — which is what makes it cacheable across adjacent windows.
void ScanTokenListInto(const ProbeContext& ctx, TokenId t, size_t set_size,
                       std::vector<ScanHit>& hits) {
  hits.clear();
  const auto list = ctx.index.list(t);
  const Span<LengthGroup> lgs(ctx.index.length_groups());
  const Span<OriginGroup> ogs(ctx.index.origin_groups());
  const Span<PostingEntry> entries(ctx.index.entries());
  AEETES_DCHECK_LE(list.end, lgs.size());
  FilterStats& st = *ctx.stats;
  const LengthRange partner =
      PartnerLengthRange(ctx.metric, set_size, ctx.tau);
  for (uint32_t g = list.begin; g < list.end; ++g) {
    const LengthGroup& lg = lgs[g];
    if (!partner.Contains(lg.length)) {
      ++st.length_groups_skipped;
      continue;
    }
    const size_t prefix_len = PrefixLength(ctx.metric, lg.length, ctx.tau);
    for (uint32_t og = lg.begin; og < lg.end; ++og) {
      const OriginGroup& origin_group = ogs[og];
      uint32_t j_min = static_cast<uint32_t>(-1);
      for (uint32_t i = origin_group.begin; i < origin_group.end; ++i) {
        ++st.entries_accessed;
        if (entries[i].pos < prefix_len) {
          j_min = std::min(j_min, entries[i].pos);
          // Without the positional filter, membership is all that
          // matters; stop at the first witness.
          if (!ctx.opts.positional_filter) break;
        }
      }
      if (j_min != static_cast<uint32_t>(-1)) {
        hits.push_back(ScanHit{origin_group.origin, lg.length, j_min});
      }
    }
  }
}

/// Dynamic: per-length window states maintained incrementally across
/// positions (Window Migrate). Because adjacent substrings share most of
/// their prefix, each state memoizes the per-token scan results: only
/// tokens that newly enter the prefix (or a changed set size) cost an
/// index scan — the savings the paper's MigCandGeneration realizes.
void GenerateDynamic(const ProbeContext& ctx, const LengthRange& win_len,
                     ExtractScratch& scratch) {
  const size_t n = ctx.doc.size();
  FilterStats& st = *ctx.stats;
  std::vector<SlidingWindow>& states = scratch.states;
  const size_t num_states = InitialWindows(ctx, win_len, states);
  if (num_states == 0) return;

  if (scratch.dynamic_caches.size() < num_states) {
    scratch.dynamic_caches.resize(num_states);
  }
  for (size_t si = 0; si < num_states; ++si) {
    scratch.dynamic_caches[si].Clear();
  }

  auto probe_cached = [&](size_t si) {
    SlidingWindow& win = states[si];
    FlatMap<TokenId, CachedScan>& cache = scratch.dynamic_caches[si];
    ++st.substrings;
    ctx.tracker->NextSubstring();
    const size_t set_size = win.set_size();
    if (set_size == 0) return;
    const size_t prefix_len = PrefixLength(ctx.metric, set_size, ctx.tau);
    for (size_t k = 0; k < prefix_len; ++k) {
      const TokenId t = win.DistinctToken(k);
      if (ctx.index.list(t).empty()) continue;
      auto [scan, inserted] = cache.TryEmplace(t);
      // A newly inserted slot may carry a stale CachedScan (FlatMap reuse
      // contract): refill unconditionally on insertion.
      if (inserted || scan->set_size != set_size) {
        scan->set_size = static_cast<uint32_t>(set_size);
        ScanTokenListInto(ctx, t, set_size, scan->hits);
      }
      for (const ScanHit& hit : scan->hits) {
        if (ctx.tracker->IsCandidate(hit.origin)) continue;
        if (!PositionalAdmit(ctx, set_size, k, hit.length, hit.j_min)) {
          continue;
        }
        ctx.tracker->Mark(hit.origin);
        ctx.candidates->push_back(
            Candidate{static_cast<uint32_t>(win.pos()),
                      static_cast<uint32_t>(win.len()), hit.origin});
        ++st.candidates;
      }
    }
  };

  ++st.windows;
  for (size_t si = 0; si < num_states; ++si) probe_cached(si);
  for (size_t p = 1; p + win_len.lo <= n; ++p) {
    ++st.windows;
    for (size_t si = 0; si < num_states; ++si) {
      if (p + states[si].len() > n) continue;  // window no longer fits
      states[si].Migrate();
      ++st.prefix_updates;
      probe_cached(si);
    }
  }
}

/// Within-run order: (set_size, pos, len). A token registers each window
/// at most once, so this is a total order over a token's registrations.
bool RunRegistrationBefore(const LazyRegistration& a,
                           const LazyRegistration& b) {
  if (a.set_size != b.set_size) return a.set_size < b.set_size;
  if (a.pos != b.pos) return a.pos < b.pos;
  return a.len < b.len;
}

bool CandidateBefore(const Candidate& a, const Candidate& b) {
  if (a.pos != b.pos) return a.pos < b.pos;
  if (a.len != b.len) return a.len < b.len;
  return a.origin < b.origin;
}

void GenerateLazy(const ProbeContext& ctx, const LengthRange& win_len,
                  ExtractScratch& scratch, TraceRecorder* trace) {
  const size_t n = ctx.doc.size();
  FilterStats& st = *ctx.stats;
  std::vector<Candidate>& candidates = *ctx.candidates;

  // Phase 1: enumerate every substring and *register* its valid prefix
  // tokens instead of probing. The flat arena, once sorted, materializes
  // the substring inverted index I (the delta-valid-token bookkeeping of
  // Section 4.2 is how the paper builds the same structure incrementally).
  std::vector<LazyRegistration>& regs = scratch.registrations;
  regs.clear();

  // Per-call FP memos: phase 1 evaluates PrefixLength once per substring
  // and phase 2 evaluates PartnerLengthRange/PrefixLength once per
  // (token, length group); both repeat a handful of distinct arguments
  // thousands of times, so the ceil/division math runs once per size here.
  const size_t max_len = std::min<size_t>(win_len.hi, n);
  const size_t max_key = std::max(max_len, ctx.dd.max_set_size());
  std::vector<uint32_t>& prefix_tab = scratch.prefix_len_table;
  prefix_tab.resize(max_key + 1);
  for (size_t s = 0; s <= max_key; ++s) {
    prefix_tab[s] = static_cast<uint32_t>(PrefixLength(ctx.metric, s, ctx.tau));
  }
  std::vector<LengthRange>& partner_tab = scratch.partner_table;
  partner_tab.resize(ctx.dd.max_set_size() + 1);
  for (size_t l = 0; l <= ctx.dd.max_set_size(); ++l) {
    partner_tab[l] = PartnerLengthRange(ctx.metric, l, ctx.tau);
  }

  // `counts` is indexed by TokenId, so it covers the document's unseen
  // tokens (ids past the dictionary) too.
  const TokenDictionary& dict = ctx.dd.token_dict();
  std::vector<uint32_t>& counts = scratch.token_counts;
  const size_t id_end = std::max(dict.size(), ctx.doc.token_id_end());
  if (counts.size() < id_end) counts.resize(id_end, 0);

  {
    TraceScope enumeration_span(trace, "window_enumeration");
    if (win_len.lo > n) {
      enumeration_span.AddStat("registrations", 0);
      return;
    }
    // One pass over the document: rank, posting-list flag and previous
    // occurrence of every token. `counts` holds each token's last
    // occurrence + 1 during the pass and is re-zeroed right after.
    const Span<TokenId> tokens(ctx.doc.tokens());
    std::vector<TokenRank>& ranks = scratch.doc_ranks;
    std::vector<uint8_t>& indexed = scratch.doc_indexed;
    std::vector<uint32_t>& prev = scratch.doc_prev;
    ranks.resize(n);
    indexed.resize(n);
    prev.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const TokenId t = tokens[i];
      AEETES_DCHECK_LT(t, counts.size());
      ranks[i] = dict.Rank(t);
      indexed[i] = ctx.index.list(t).empty() ? 0 : 1;
      prev[i] = counts[t];
      counts[t] = static_cast<uint32_t>(i + 1);
    }
    for (size_t i = 0; i < n; ++i) counts[tokens[i]] = 0;

    // K = the longest prefix any admissible set size needs (the max, not
    // the last entry: PrefixLength need not be monotone in general). A
    // substring's prefix is the first PrefixLength(set size) of its K
    // rarest distinct tokens.
    size_t top_k = 0;
    for (size_t s = 1; s <= max_len; ++s) {
      top_k = std::max<size_t>(top_k, prefix_tab[s]);
    }
    std::vector<LazyPrefixSlot>& top = scratch.lazy_prefix;
    top.resize(top_k);

    // Extend from each start p: token i is new to [p, i] iff its previous
    // occurrence lies before p. A new token bumps the set size and, when
    // rare enough, is insertion-sorted into the top-K buffer; a token that
    // misses the buffer can never enter a longer substring's top K.
    for (size_t p = 0; p + win_len.lo <= n; ++p) {
      ++st.windows;
      const size_t end = std::min<size_t>(win_len.hi, n - p);
      if (end < win_len.lo) continue;
      size_t used = 0;
      size_t set_size = 0;
      for (size_t l = 1; l <= end; ++l) {
        const size_t i = p + l - 1;
        if (prev[i] <= p) {
          ++set_size;
          const TokenRank r = ranks[i];
          if (used < top_k || (used > 0 && r < top[used - 1].rank)) {
            size_t j = used < top_k ? used++ : used - 1;
            for (; j > 0 && top[j - 1].rank > r; --j) top[j] = top[j - 1];
            top[j] = LazyPrefixSlot{r, tokens[i], indexed[i]};
          }
        }
        if (l < win_len.lo) continue;
        const size_t prefix_len = prefix_tab[set_size];
        AEETES_DCHECK_LE(prefix_len, used);
        for (size_t k = 0; k < prefix_len; ++k) {
          if (top[k].indexed == 0) continue;  // invalid or unindexed token
          regs.push_back(LazyRegistration{
              top[k].token, static_cast<uint32_t>(set_size),
              static_cast<uint32_t>(p), static_cast<uint32_t>(l),
              static_cast<uint32_t>(k)});
        }
      }
      const size_t substrings = end - win_len.lo + 1;
      st.substrings += substrings;
      ++st.prefix_rebuilds;
      st.prefix_updates += substrings - 1;
    }
    st.registrations = regs.size();
    enumeration_span.AddStat("registrations", st.registrations);
  }

  // Phase 2: one scan of L[t] per valid token. A counting scatter (two
  // O(R) passes over the arena) groups registrations into contiguous
  // per-token runs, and each run is sorted by set size so length groups
  // match contiguous subranges — the same run contents a global sort would
  // produce, at sum-per-token n_t*log(n_t) comparisons instead of
  // R*log(R).
  TraceScope scan_span(trace, "posting_scan");
  std::vector<LazyRegistration>& by_token = scratch.registrations_by_token;
  std::vector<TokenId>& run_tokens = scratch.run_tokens;
  std::vector<uint32_t>& run_offsets = scratch.run_offsets;
  run_tokens.clear();
  for (const LazyRegistration& r : regs) {
    if (counts[r.token]++ == 0) run_tokens.push_back(r.token);
  }
  std::sort(run_tokens.begin(), run_tokens.end());
  run_offsets.resize(run_tokens.size() + 1);
  uint32_t run_total = 0;
  for (size_t i = 0; i < run_tokens.size(); ++i) {
    run_offsets[i] = run_total;
    run_total += counts[run_tokens[i]];
    counts[run_tokens[i]] = run_offsets[i];  // becomes the scatter cursor
  }
  run_offsets[run_tokens.size()] = run_total;
  by_token.resize(regs.size());
  for (const LazyRegistration& r : regs) by_token[counts[r.token]++] = r;
  // Restore the all-zero invariant by touching only registered tokens.
  for (TokenId t : run_tokens) counts[t] = 0;
  for (size_t i = 0; i < run_tokens.size(); ++i) {
    std::sort(by_token.begin() + static_cast<ptrdiff_t>(run_offsets[i]),
              by_token.begin() + static_cast<ptrdiff_t>(run_offsets[i + 1]),
              RunRegistrationBefore);
  }

  // Candidate dedupe. The fast path hashes an exact 64-bit key — window id
  // (pos * num_lens + length offset) in the high word, origin in the low
  // word — which is collision-free by construction *when every window id
  // fits 32 bits*, checked below. (Its predecessor packed pos/len/origin
  // into 26/8/30 bits unconditionally, so windows of 256+ tokens silently
  // aliased neighboring positions in release builds and dropped real
  // candidates.) When window ids could overflow, candidates are emitted
  // with duplicates and deduped by sort+unique over the full-width
  // (pos, len, origin) triples, which is exact at any scale.
  const uint64_t num_lens =
      max_len >= win_len.lo ? static_cast<uint64_t>(max_len - win_len.lo) + 1
                            : 0;
  const bool hashed_dedupe =
      n == 0 || num_lens == 0 ||
      num_lens <= (uint64_t{1} << 32) / static_cast<uint64_t>(n);
  FlatSet<uint64_t>& dedupe = scratch.lazy_dedupe;
  dedupe.Clear();
  auto window_key = [&](uint32_t pos, uint32_t len, EntityId origin) {
    const uint64_t wid =
        static_cast<uint64_t>(pos) * num_lens +
        (static_cast<uint64_t>(len) - static_cast<uint64_t>(win_len.lo));
    return (wid << 32) | static_cast<uint64_t>(origin);
  };

  const Span<LengthGroup> lgs(ctx.index.length_groups());
  const Span<OriginGroup> ogs(ctx.index.origin_groups());
  const Span<PostingEntry> entries(ctx.index.entries());

  const uint64_t valid_tokens = run_tokens.size();
  const size_t first_candidate = candidates.size();
  for (size_t ri = 0; ri < run_tokens.size(); ++ri) {
    const TokenId t = run_tokens[ri];
    const auto run_lo =
        by_token.begin() + static_cast<ptrdiff_t>(run_offsets[ri]);
    const auto run_hi =
        by_token.begin() + static_cast<ptrdiff_t>(run_offsets[ri + 1]);

    const auto list = ctx.index.list(t);
    for (uint32_t g = list.begin; g < list.end; ++g) {
      const LengthGroup& lg = lgs[g];
      // Substring set sizes compatible with entity length lg.length.
      const LengthRange sizes = partner_tab[lg.length];
      auto lo = std::lower_bound(
          run_lo, run_hi, sizes.lo,
          [](const LazyRegistration& r, size_t v) { return r.set_size < v; });
      auto hi = std::upper_bound(
          run_lo, run_hi, sizes.hi,
          [](size_t v, const LazyRegistration& r) { return v < r.set_size; });
      if (lo == hi) {
        ++st.length_groups_skipped;
        continue;
      }
      const size_t prefix_len = prefix_tab[lg.length];
      for (uint32_t og = lg.begin; og < lg.end; ++og) {
        const OriginGroup& origin_group = ogs[og];
        uint32_t j_min = static_cast<uint32_t>(-1);
        for (uint32_t i = origin_group.begin; i < origin_group.end; ++i) {
          ++st.entries_accessed;
          if (entries[i].pos < prefix_len) {
            j_min = std::min(j_min, entries[i].pos);
            if (!ctx.opts.positional_filter) break;
          }
        }
        if (j_min == static_cast<uint32_t>(-1)) continue;
        for (auto it = lo; it != hi; ++it) {
          if (!PositionalAdmit(ctx, it->set_size, it->k, lg.length, j_min)) {
            continue;
          }
          if (hashed_dedupe) {
            if (dedupe.Insert(
                    window_key(it->pos, it->len, origin_group.origin))) {
              candidates.push_back(
                  Candidate{it->pos, it->len, origin_group.origin});
              ++st.candidates;
            }
          } else {
            candidates.push_back(
                Candidate{it->pos, it->len, origin_group.origin});
          }
        }
      }
    }
  }
  scan_span.AddStat("valid_tokens", valid_tokens);

  if (!hashed_dedupe) {
    auto out_begin =
        candidates.begin() + static_cast<ptrdiff_t>(first_candidate);
    std::sort(out_begin, candidates.end(), CandidateBefore);
    candidates.erase(std::unique(out_begin, candidates.end()),
                     candidates.end());
    st.candidates += candidates.size() - first_candidate;
  }
}

}  // namespace

FilterStats GenerateCandidatesInto(FilterStrategy strategy,
                                   const Document& doc,
                                   const DerivedDictionary& dd,
                                   const ClusteredIndex& index, double tau,
                                   Metric metric,
                                   const CandidateGenOptions& options,
                                   ExtractScratch& scratch,
                                   TraceRecorder* trace) {
  AEETES_CHECK_GT(tau, 0.0) << "threshold must be in (0, 1]";
  AEETES_CHECK_LE(tau, 1.0) << "threshold must be in (0, 1]";
  FilterStats stats;
  scratch.candidates.clear();
  scratch.tracker.Reserve(dd.num_origins());
  TraceScope filter_span(trace, "filter");
  const LengthRange win_len =
      options.override_entity_sizes
          ? SubstringLengthBounds(metric, options.entity_size_min,
                                  options.entity_size_max, tau)
          : SubstringLengthBounds(metric, dd.min_set_size(),
                                  dd.max_set_size(), tau);
  ProbeContext ctx{doc,     dd,    index,
                   tau,     metric, options,
                   &scratch.candidates, &stats, &scratch.tracker};
  switch (strategy) {
    case FilterStrategy::kSimple:
      GenerateEnumerated(ctx, win_len, /*batch_skip=*/false, scratch.states);
      break;
    case FilterStrategy::kSkip:
      GenerateEnumerated(ctx, win_len, /*batch_skip=*/true, scratch.states);
      break;
    case FilterStrategy::kDynamic:
      GenerateDynamic(ctx, win_len, scratch);
      break;
    case FilterStrategy::kLazy:
      GenerateLazy(ctx, win_len, scratch, trace);
      break;
  }
  stats.CheckConsistent();
  filter_span.AddStat("windows", stats.windows);
  filter_span.AddStat("substrings", stats.substrings);
  filter_span.AddStat("prefix_rebuilds", stats.prefix_rebuilds);
  filter_span.AddStat("prefix_updates", stats.prefix_updates);
  filter_span.AddStat("entries_accessed", stats.entries_accessed);
  filter_span.AddStat("length_groups_skipped", stats.length_groups_skipped);
  filter_span.AddStat("origin_groups_skipped", stats.origin_groups_skipped);
  filter_span.AddStat("candidates", stats.candidates);
  filter_span.AddStat("positional_pruned", stats.positional_pruned);
  filter_span.AddStat("registrations", stats.registrations);
  return stats;
}

CandidateGenOutput GenerateCandidates(FilterStrategy strategy,
                                      const Document& doc,
                                      const DerivedDictionary& dd,
                                      const ClusteredIndex& index, double tau,
                                      Metric metric,
                                      const CandidateGenOptions& options,
                                      TraceRecorder* trace) {
  ExtractScratch scratch;
  CandidateGenOutput out;
  out.stats = GenerateCandidatesInto(strategy, doc, dd, index, tau, metric,
                                     options, scratch, trace);
  out.candidates = std::move(scratch.candidates);
  return out;
}

}  // namespace aeetes
