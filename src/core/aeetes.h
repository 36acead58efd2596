#ifndef AEETES_CORE_AEETES_H_
#define AEETES_CORE_AEETES_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/common/telemetry.h"
#include "src/core/candidate_generator.h"
#include "src/core/delta_layer.h"
#include "src/core/document.h"
#include "src/core/engine_image.h"
#include "src/core/scratch.h"
#include "src/core/verifier.h"
#include "src/index/clustered_index.h"
#include "src/sim/jaccar.h"
#include "src/synonym/derived_dictionary.h"
#include "src/synonym/rule.h"
#include "src/text/tokenizer.h"

namespace aeetes {

struct AeetesOptions {
  /// Syntactic metric underlying JaccAR (Jaccard in the paper).
  Metric metric = Metric::kJaccard;
  /// Default filtering strategy for Extract(); the paper's best is Lazy.
  FilterStrategy strategy = FilterStrategy::kLazy;
  /// Weighted-rule extension (paper future work (iii)).
  bool weighted = false;
  /// ppjoin-style positional filter in candidate generation (an extension
  /// beyond the paper's filter set; see CandidateGenOptions).
  bool positional_filter = false;
  /// Derived-dictionary construction knobs (cap on |D(e)|, clique mode).
  DerivedDictionaryOptions derivation;
  /// Tokenizer configuration used by BuildFromText / EncodeDocument.
  TokenizerOptions tokenizer;
};

/// End-to-end AEES framework (Algorithm 1): offline, applies synonym rules
/// to the entity dictionary, derives the clustered inverted index; online,
/// extracts from documents all substrings s with JaccAR(e, s) >= tau.
///
/// Build once, then Extract any number of documents with any thresholds —
/// the index is threshold-independent.
///
/// Thread-safety contract
/// ----------------------
/// After Build returns, every const method is safe to call concurrently
/// from any number of threads against one shared instance — EncodeDocument
/// included: encoding only reads the frozen dictionary (unseen tokens get
/// per-document ids, see Document), and the online path (Extract /
/// ExtractWithStrategy / ExtractInto / LookupString / Explain) keeps all
/// per-call state on the caller's stack or in the caller's ExtractScratch
/// (one per thread) and reads the derived dictionary and index, which are
/// immutable after construction. The only mutable member, the metrics
/// registry, is updated with relaxed atomics and may be read
/// (metrics().ToJson()) while extractions run. Distinct TraceRecorders may
/// be passed from distinct threads; one recorder must not be shared by
/// concurrent calls.
class Aeetes {
 public:
  /// Offline stage from pre-encoded entities. `dict` must hold all entity
  /// and rule tokens and must not be frozen (Build freezes it).
  static Result<std::unique_ptr<Aeetes>> Build(
      std::vector<TokenSeq> entities, const RuleSet& rules,
      std::unique_ptr<TokenDictionary> dict, AeetesOptions options = {});

  /// Offline stage from raw text: tokenizes entities and "lhs <=> rhs"
  /// rule lines with the configured tokenizer. The rule lines are stored
  /// in the engine image, so snapshots carry them.
  static Result<std::unique_ptr<Aeetes>> BuildFromText(
      const std::vector<std::string>& entities,
      const std::vector<std::string>& rule_lines, AeetesOptions options = {});

  /// Wraps an already-derived dictionary by repacking it into a fresh
  /// engine image (deep copy; the v1-snapshot and hand-assembly path).
  static Result<std::unique_ptr<Aeetes>> FromDerivedDictionary(
      std::unique_ptr<DerivedDictionary> dd, AeetesOptions options = {});

  /// Wraps a wired engine image — heap-packed or mmap-loaded; the zero-copy
  /// snapshot path. No index rebuild, no per-entity allocation.
  static Result<std::unique_ptr<Aeetes>> FromImage(
      std::unique_ptr<EngineImage> image, AeetesOptions options = {});

  /// Tokenizes and encodes a document against this instance's dictionary,
  /// which it never changes (see Document).
  Document EncodeDocument(std::string_view text) const;

  struct ExtractionResult {
    std::vector<Match> matches;
    FilterStats filter_stats;
    VerifyStats verify_stats;
    double filter_ms = 0.0;
    double verify_ms = 0.0;
  };

  /// Online stage: all (entity, substring) pairs with JaccAR >= tau.
  /// When `trace` is non-null, the call records a per-stage span tree
  /// (extract -> filter -> verify, with the stage stat counters attached)
  /// into it; tracing off (the default) adds no work to the hot path.
  Result<ExtractionResult> Extract(const Document& doc, double tau,
                                   TraceRecorder* trace = nullptr) const;

  /// Extract with an explicit strategy (the Figure 10/11 ablation axis).
  Result<ExtractionResult> ExtractWithStrategy(
      const Document& doc, double tau, FilterStrategy strategy,
      TraceRecorder* trace = nullptr) const;

  /// Extraction outcome when the matches themselves live in the caller's
  /// scratch (ExtractInto): everything ExtractionResult carries except the
  /// match vector.
  struct ExtractionSummary {
    FilterStats filter_stats;
    VerifyStats verify_stats;
    double filter_ms = 0.0;
    double verify_ms = 0.0;
  };

  /// Allocation-free online stage: identical results to Extract, but every
  /// per-call buffer is drawn from `scratch` and the matches are left in
  /// `scratch.matches` (valid until the next call on that scratch). After
  /// one warm-up call, steady-state calls perform zero heap allocations
  /// (DESIGN.md §10; enforced by bench_micro_ops --assert-steady-state).
  /// One scratch per thread: see the ExtractScratch reuse contract.
  Result<ExtractionSummary> ExtractInto(ExtractScratch& scratch,
                                        const Document& doc, double tau,
                                        TraceRecorder* trace = nullptr) const;

  /// ExtractInto with an explicit strategy.
  Result<ExtractionSummary> ExtractIntoWithStrategy(
      ExtractScratch& scratch, const Document& doc, double tau,
      FilterStrategy strategy, TraceRecorder* trace = nullptr) const;

  /// One scored dictionary hit for a free-standing mention string.
  struct Lookup {
    EntityId entity = 0;
    double score = 0.0;
    DerivedId best_derived = JaccArScore::kNoDerived;
  };

  /// Matches a single mention string (not a document) against the
  /// dictionary: the whole string is one window. Returns up to `k` hits
  /// with JaccAR >= tau, best first — the "which entity is this?" lookup
  /// used by autocomplete / record-linkage callers.
  Result<std::vector<Lookup>> LookupString(std::string_view mention,
                                           double tau, size_t k = 5) const;

  [[nodiscard]] const DerivedDictionary& derived_dictionary() const {
    return *dd_;
  }
  [[nodiscard]] const ClusteredIndex& index() const { return *index_; }
  /// The arena all offline state lives in; SaveSnapshot writes its bytes.
  [[nodiscard]] const EngineImage& image() const { return *image_; }
  [[nodiscard]] const Tokenizer& tokenizer() const { return tokenizer_; }
  [[nodiscard]] const AeetesOptions& options() const { return options_; }

  /// Per-instance metrics registry: cumulative filter/verify/build/index
  /// counters and latency histograms (naming scheme in DESIGN.md
  /// §Observability). Counters are updated by Extract with relaxed
  /// atomics, so reading or exporting concurrently is race-free.
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }

  /// Mutable handle to the instance registry (the designated-mutable
  /// member). Runtime components layered above the core — pool gauges,
  /// telemetry publishers — write through this; updates stay lock-free
  /// relaxed atomics, so it is as safe as the const view.
  [[nodiscard]] MetricsRegistry& mutable_metrics() const { return metrics_; }

  /// Publishes `snapshot.{load_us,bytes,mmap}` gauges describing how this
  /// instance's image was loaded. Called by LoadSnapshot / the CLI; const
  /// because the registry is the designated-mutable member.
  void PublishSnapshotMetrics(double load_us, uint64_t bytes,
                              bool mmap) const;

  /// Turns on the always-on flight recorder: every 1-in-N Extract keeps
  /// its full span tree, any call over the slow threshold is retained
  /// unconditionally, and the K slowest survive in a bounded ring
  /// (FlightRecorderOptions; DESIGN.md §13). Enable once before extraction
  /// traffic starts — installing the recorder is not synchronized against
  /// in-flight Extract calls; once installed, recording itself is
  /// thread-safe. When the recorder is off (the default), the hot path
  /// pays exactly one pointer null-check.
  void EnableFlightRecorder(const FlightRecorderOptions& options);

  /// The installed recorder, or nullptr when disabled.
  [[nodiscard]] FlightRecorder* flight_recorder() const {
    return flight_.get();
  }

  /// Attaches a live delta overlay (DESIGN.md §15): Extract then merges
  /// frozen-image results with delta entities, filters tombstoned origins,
  /// and enumerates windows under the overlay's effective entity-size
  /// bounds — yielding exactly what a full rebuild over the live entity
  /// set would. Attach once before extraction traffic starts (installation
  /// is not synchronized); afterwards the layer's own snapshot swap makes
  /// every mutation atomically visible. With a non-empty overlay the
  /// delta half of the call is exempt from the zero-allocation contract.
  void AttachDelta(std::shared_ptr<DeltaLayer> delta) {
    delta_ = std::move(delta);
  }

  /// The attached overlay, or nullptr.
  [[nodiscard]] DeltaLayer* delta_layer() const { return delta_.get(); }

  /// Original-entity text reconstruction (token texts joined by spaces).
  [[nodiscard]] std::string EntityText(EntityId e) const;

  /// Human-readable explanation of a match: which derived entity
  /// witnessed it and which synonym rules produced that witness. The rule
  /// ids refer to the RuleSet the extractor was built with.
  struct MatchExplanation {
    std::string substring_text;  // empty when built from raw tokens
    std::string entity_text;
    std::string witness_text;    // the best derived entity
    std::vector<RuleId> applied_rules;
    double score = 0.0;
  };
  [[nodiscard]] MatchExplanation Explain(const Match& match,
                                         const Document& doc) const;

 private:
  /// Registered pipeline metrics, resolved once at construction so the
  /// extraction path updates plain references (one relaxed atomic add
  /// each) instead of doing name lookups.
  struct PipelineMetrics {
    explicit PipelineMetrics(MetricsRegistry& registry);

    Counter& extract_calls;
    Counter& filter_windows;
    Counter& filter_substrings;
    Counter& filter_prefix_rebuilds;
    Counter& filter_prefix_updates;
    Counter& filter_entries_accessed;
    Counter& filter_length_groups_skipped;
    Counter& filter_origin_groups_skipped;
    Counter& filter_candidates;
    Counter& filter_positional_pruned;
    Counter& filter_registrations;
    Counter& verify_pairs;
    Counter& verify_matches;
    Counter& verify_bound_pruned;
    Histogram& extract_latency_us;
    Histogram& filter_latency_us;
    Histogram& verify_latency_us;
  };

  Aeetes(AeetesOptions options, std::unique_ptr<EngineImage> image)
      : options_(options),
        tokenizer_(options.tokenizer),
        image_(std::move(image)),
        dd_(&image_->derived_dictionary()),
        index_(&image_->index()),
        pipeline_(metrics_) {}

  /// Packs offline build parts into an engine image and wraps it.
  static Result<std::unique_ptr<Aeetes>> FromParts(DerivedDictParts parts,
                                                   AeetesOptions options);

  /// Publishes offline-stage observations (derivation expansion counts,
  /// clique solver steps, index build time and sizes) as gauges.
  void PublishBuildMetrics(double index_build_ms);

  AeetesOptions options_;
  Tokenizer tokenizer_;
  /// Owns the arena plus the views wired over it; dd_/index_ alias it.
  std::unique_ptr<EngineImage> image_;
  const DerivedDictionary* dd_;
  const ClusteredIndex* index_;
  mutable MetricsRegistry metrics_;
  PipelineMetrics pipeline_;
  /// Installed by EnableFlightRecorder; null when recording is off.
  std::unique_ptr<FlightRecorder> flight_;
  /// Installed by AttachDelta; null when the engine is frozen-only.
  std::shared_ptr<DeltaLayer> delta_;
};

}  // namespace aeetes

#endif  // AEETES_CORE_AEETES_H_
