#ifndef AEETES_CORE_ENGINE_IMAGE_H_
#define AEETES_CORE_ENGINE_IMAGE_H_

#include <memory>
#include <string>

#include "src/common/arena.h"
#include "src/common/span.h"
#include "src/common/status.h"
#include "src/index/clustered_index.h"
#include "src/io/mapped_file.h"
#include "src/synonym/derived_dictionary.h"

namespace aeetes {

/// Cost accounting for building or loading an engine image.
struct EngineImageStats {
  /// Clustered-index construction time (build path only).
  double index_ms = 0.0;
  /// Flatten + checksum + arena-copy time (build path only).
  double pack_ms = 0.0;
  /// Parse + wire + validate time (both paths; the whole load cost for
  /// FromFile since mmap itself is O(1)).
  double load_ms = 0.0;
  /// True when the arena is a read-only file mapping.
  bool mmap_backed = false;
};

/// One contiguous arena holding every immutable offline artifact — token
/// dictionary, origin and derived entities, size-sorted index, rank arena,
/// clustered inverted index — plus the wired views over it (DESIGN.md
/// §11). The arena is either a private heap buffer (Pack, the online build
/// path) or a read-only file mapping (FromFile, the snapshot path);
/// the wiring code is byte-for-byte the same for both, so a loaded engine
/// is bit-identical in behavior to a freshly built one.
///
/// Saving is `write(bytes())` — the in-memory arena IS the file format.
/// Loading performs no index rebuild and no per-entity allocation: views
/// point straight into the mapping, and validation touches each section
/// once.
///
/// Lifetime: the dictionaries and index alias the arena; EngineImage owns
/// both and must outlive every reader (Aeetes holds it for exactly this
/// reason). The mapping is read-only and the views are immutable after
/// wiring, so concurrent readers — including multiple processes sharing
/// one snapshot file through the page cache — need no synchronization.
/// Nothing in an image changes after wiring: documents are encoded
/// against its dictionary read-only (see Document).
class EngineImage {
 public:
  /// Flattens offline build parts into a fresh heap arena and wires the
  /// serving views over it. Consumes `parts`.
  static Result<std::unique_ptr<EngineImage>> Pack(DerivedDictParts parts);

  /// Maps an engine-image snapshot file read-only and wires views over
  /// the mapping (zero-copy). Corrupt or truncated input yields a Status,
  /// never a crash.
  static Result<std::unique_ptr<EngineImage>> FromFile(
      const std::string& path);

  /// Wires views over an image already in memory, taking ownership of the
  /// buffer. (Tests and in-process hand-offs.)
  static Result<std::unique_ptr<EngineImage>> FromBuffer(AlignedBuffer buffer);

  [[nodiscard]] const DerivedDictionary& derived_dictionary() const {
    return *dd_;
  }
  [[nodiscard]] const ClusteredIndex& index() const { return *index_; }

  /// The serialized image; SaveSnapshot writes these bytes verbatim.
  [[nodiscard]] Span<uint8_t> bytes() const {
    return mapped_.valid() ? mapped_.bytes() : heap_.bytes();
  }

  [[nodiscard]] const EngineImageStats& stats() const { return stats_; }

 private:
  EngineImage() = default;

  /// Shared wiring: parse the section table, then wire dictionary, derived
  /// dictionary and index over `bytes` in that order.
  static Status Wire(EngineImage& image, Span<uint8_t> bytes);

  AlignedBuffer heap_;  // exactly one of heap_/mapped_ is non-empty
  MappedFile mapped_;
  std::unique_ptr<DerivedDictionary> dd_;
  std::unique_ptr<ClusteredIndex> index_;
  EngineImageStats stats_;
};

}  // namespace aeetes

#endif  // AEETES_CORE_ENGINE_IMAGE_H_
