#ifndef AEETES_CORE_SCRATCH_H_
#define AEETES_CORE_SCRATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/core/candidate_generator.h"
#include "src/core/delta_layer.h"
#include "src/core/verifier.h"
#include "src/core/window.h"
#include "src/text/token.h"

namespace aeetes {

/// Per-substring candidate-origin tracker. A timestamp array avoids
/// clearing a hash set for every substring — and, because epochs only ever
/// grow, the same tracker is safe to reuse across documents without any
/// reset.
///
/// Epochs start at 1 with `last_seen_` zero-initialized, so no origin can
/// read as already-marked before the first Mark. (The tracker previously
/// started at epoch 0, matching the zero-initialized array: every origin
/// looked like a candidate of the pre-first-NextSubstring "substring".)
class OriginTracker {
 public:
  OriginTracker() = default;
  explicit OriginTracker(size_t num_origins) { Reserve(num_origins); }

  /// Grow-only: new slots are stamped 0, which is never a live epoch, so
  /// growing cannot spuriously mark an origin.
  void Reserve(size_t num_origins) {
    if (last_seen_.size() < num_origins) last_seen_.resize(num_origins, 0);
  }

  void NextSubstring() { ++epoch_; }

  [[nodiscard]] bool IsCandidate(EntityId e) const {
    AEETES_DCHECK_LT(e, last_seen_.size());
    return last_seen_[e] == epoch_;
  }

  /// Returns true when newly marked.
  bool Mark(EntityId e) {
    AEETES_DCHECK_GT(epoch_, 0u) << "Mark at epoch 0 would poison slot 0";
    AEETES_DCHECK_LT(e, last_seen_.size());
    if (last_seen_[e] == epoch_) return false;
    last_seen_[e] = epoch_;
    return true;
  }

 private:
  std::vector<uint64_t> last_seen_;
  uint64_t epoch_ = 1;
};

/// One cacheable hit of a token-list scan: an origin whose derived
/// entities of ordered-set size `length` share the token within their
/// tau-prefix; `j_min` is the smallest such prefix position (the best
/// witness for the positional filter).
struct ScanHit {
  EntityId origin;
  uint32_t length;
  uint32_t j_min;
};

/// Memoized result of scanning L[t] for one substring set size (the
/// Dynamic strategy's cache payload). Lives inside a FlatMap slot, so the
/// `hits` vector keeps its capacity across FlatMap::Clear() epochs.
struct CachedScan {
  uint32_t set_size = 0;
  std::vector<ScanHit> hits;
};

/// Lazy phase-1 record: token `token` is a valid prefix token (at prefix
/// index `k`) of the substring [pos, pos + len) with `set_size` distinct
/// tokens. The flat arena of these, sorted by (token, set_size, pos, len),
/// IS the substring inverted index I of Section 4.2 — token runs replace
/// the hash map, set-size subranges replace the per-token sort.
struct LazyRegistration {
  TokenId token;
  uint32_t set_size;
  uint32_t pos;
  uint32_t len;
  uint32_t k;
};

/// Lazy phase-1 top-K slot: one distinct token of the substrings that
/// start at the current position, kept sorted by ascending `rank` (the
/// global order). `indexed` caches whether the token has a posting list.
struct LazyPrefixSlot {
  TokenRank rank;
  TokenId token;
  uint32_t indexed;
};

/// Reusable per-call state for the online extraction pipeline (DESIGN.md
/// §10 "Hot-path memory discipline").
///
/// Ownership / reuse contract:
///  * One scratch per calling thread; a scratch must never be shared by
///    concurrent Extract calls (ParallelExtractor keeps one per worker).
///  * Every buffer is reset *by the callee* at the start of the call that
///    uses it and is reset in a capacity-preserving way (clear(), epoch
///    bump, used-count) — never by destroying elements.
///  * After ExtractInto returns, `matches` holds the result until the next
///    call; everything else is dead weight kept warm.
///  * A warm scratch (one prior call of similar shape) makes the whole
///    online path allocation-free; bench_micro_ops --assert-steady-state
///    and the check.sh `alloc` step enforce this.
///
/// The window states keep Document/TokenDictionary pointers between calls;
/// they may dangle once the previous document dies, and are rebound
/// (Attach) before any use — never dereferenced in between.
struct ExtractScratch {
  /// Filter output: candidate (substring, origin) pairs.
  std::vector<Candidate> candidates;
  /// Per-substring origin dedupe (epoch array, never reset).
  OriginTracker tracker;
  /// Per-length sliding-window states; `InitialWindows` reuses the first
  /// N elements (slot buffers keep their capacity via copy-assignment).
  std::vector<SlidingWindow> states;
  /// Dynamic strategy: one token -> CachedScan memo per window state.
  std::vector<FlatMap<TokenId, CachedScan>> dynamic_caches;
  /// Lazy strategy: per-document token arrays, indexed by document
  /// position — global-order rank, "has a posting list" flag, and the
  /// previous occurrence of the same token plus one (0 when none).
  std::vector<TokenRank> doc_ranks;
  std::vector<uint8_t> doc_indexed;
  std::vector<uint32_t> doc_prev;
  /// Lazy strategy: the top-K rank buffer of the current start position
  /// (see LazyPrefixSlot).
  std::vector<LazyPrefixSlot> lazy_prefix;
  /// Lazy strategy: phase-1 registration arena (see LazyRegistration).
  std::vector<LazyRegistration> registrations;
  /// Lazy strategy: the arena scattered into contiguous per-token runs.
  std::vector<LazyRegistration> registrations_by_token;
  /// Lazy strategy: per-token counts / scatter cursors (and, in phase 1,
  /// last-occurrence cursors), indexed by TokenId. All-zero between calls;
  /// GenerateLazy re-zeroes only the tokens it touched, never the whole
  /// array.
  std::vector<uint32_t> token_counts;
  /// Lazy strategy: distinct registered tokens, ascending.
  std::vector<TokenId> run_tokens;
  /// Lazy strategy: run_tokens[i]'s registrations are
  /// registrations_by_token[run_offsets[i], run_offsets[i+1]).
  std::vector<uint32_t> run_offsets;
  /// Lazy strategy: PrefixLength(metric, size, tau) memo, indexed by set
  /// size — valid for the tau/metric of the current call only.
  std::vector<uint32_t> prefix_len_table;
  /// Lazy strategy: PartnerLengthRange(metric, length, tau) memo, indexed
  /// by entity length — same per-call validity.
  std::vector<LengthRange> partner_table;
  /// Lazy strategy: candidate dedupe over exact (window, origin) keys —
  /// used only when the key provably fits 64 bits (see GenerateLazy).
  FlatSet<uint64_t> lazy_dedupe;
  /// Verifier: ordered set of the current candidate substring (exhaustive
  /// Score path).
  TokenSeq ordered_set;
  /// Verifier: the same set as materialized ranks (early-termination
  /// path).
  std::vector<TokenRank> ordered_ranks;
  /// Verifier output, sorted by (token_begin, token_len, entity).
  std::vector<Match> matches;
  /// Delta-overlay query buffers; untouched (zero cost) unless the engine
  /// has a DeltaLayer attached and its current snapshot is non-empty.
  DeltaQueryBuffers delta;
  /// Flight-recorder span capture for calls the sampler picks when the
  /// caller did not pass its own TraceRecorder. Lives in the scratch so
  /// sampled calls reuse one warm recorder per thread (Clear keeps span
  /// capacity); untouched — zero cost — when the recorder is disabled.
  TraceRecorder flight_trace;
};

}  // namespace aeetes

#endif  // AEETES_CORE_SCRATCH_H_
