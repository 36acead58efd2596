#ifndef AEETES_COMMON_ARENA_H_
#define AEETES_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/span.h"
#include "src/common/status.h"

namespace aeetes {

/// Engine-image arena (snapshot format v3, DESIGN.md §11).
///
/// All immutable offline state — token dictionary, derived dictionary,
/// size-sorted index, rank arenas, clustered inverted index — lives in one
/// contiguous byte buffer laid out as:
///
///   [ImageHeader (64 B)] [SectionEntry × N] [pad] [section 0] [pad] ...
///
/// Every section payload starts at a multiple of kImageAlignment and
/// carries its own CRC32c, so a loader can verify integrity per section
/// and then hand out typed `Span` views directly into the buffer —
/// zero-copy whether the buffer is a heap arena filled by the online
/// builders or an mmap-ed snapshot file. The format is little-endian only
/// (the header carries an endian mark; big-endian hosts reject the file).
inline constexpr uint32_t kImageMagic = 0x54454541;  // "AEET" (shared w/ v1)
inline constexpr uint32_t kImageVersion = 3;
/// Oldest version ever written in this layout. Versions in
/// [kFirstImageVersion, kImageVersion) are recognized but refused: they
/// lack sections the serving path relies on (v2: the origin-union bound
/// and the rule lines), so they must be rebuilt from source.
inline constexpr uint32_t kFirstImageVersion = 2;
inline constexpr uint32_t kImageEndianMark = 0x01020304;
inline constexpr size_t kImageAlignment = 64;
inline constexpr uint32_t kImageMaxSections = 1024;

struct ImageHeader {
  uint32_t magic = 0;    // kImageMagic; same offset as the v1 magic word
  uint32_t version = 0;  // kImageVersion; same offset as the v1 version
  uint64_t file_size = 0;
  uint32_t endian_mark = 0;
  uint32_t section_count = 0;
  uint64_t table_offset = 0;  // always sizeof(ImageHeader)
  uint32_t table_crc32c = 0;  // over the raw SectionEntry table bytes
  uint8_t reserved[28] = {};
};
static_assert(sizeof(ImageHeader) == 64, "header must stay 64 bytes");
static_assert(std::is_trivially_copyable_v<ImageHeader>);

struct SectionEntry {
  uint32_t id = 0;         // img::k* constant; unique within one image
  uint32_t elem_size = 0;  // sizeof the element type stored in the section
  uint64_t offset = 0;     // from image start; multiple of kImageAlignment
  uint64_t length = 0;     // payload bytes, excluding alignment padding
  uint32_t crc32c = 0;     // over the payload bytes
  uint32_t reserved = 0;
};
static_assert(sizeof(SectionEntry) == 32, "entry must stay 32 bytes");
static_assert(std::is_trivially_copyable_v<SectionEntry>);

/// Section ids. Values are part of the on-disk format: never renumber,
/// only append. Gaps leave room for per-component growth.
namespace img {
inline constexpr uint32_t kMeta = 1;
// TokenDictionary (src/text/token_dictionary.h).
inline constexpr uint32_t kDictTextBlob = 10;
inline constexpr uint32_t kDictTextBegin = 11;
inline constexpr uint32_t kDictFreq = 12;
inline constexpr uint32_t kDictHashSlots = 13;
// DerivedDictionary (src/synonym/derived_dictionary.h).
inline constexpr uint32_t kOriginTokenBegin = 20;
inline constexpr uint32_t kOriginTokens = 21;
inline constexpr uint32_t kDerivedOrigin = 22;
inline constexpr uint32_t kDerivedWeight = 23;
inline constexpr uint32_t kDerivedTokenBegin = 24;
inline constexpr uint32_t kDerivedTokens = 25;
inline constexpr uint32_t kDerivedSetBegin = 26;
inline constexpr uint32_t kDerivedSetTokens = 27;
inline constexpr uint32_t kDerivedRuleBegin = 28;
inline constexpr uint32_t kDerivedRules = 29;
inline constexpr uint32_t kOriginDerivedBegin = 30;
inline constexpr uint32_t kSizeSortedIds = 31;
inline constexpr uint32_t kSizeSortedSizes = 32;
inline constexpr uint32_t kRanksBegin = 33;
inline constexpr uint32_t kRanksArena = 34;
// Since v3: per-origin union of the derived entities' ranks (the
// verifier's overlap bound) and the collection's synonym rule lines.
inline constexpr uint32_t kOriginUnionBegin = 35;
inline constexpr uint32_t kOriginUnionRanks = 36;
inline constexpr uint32_t kRuleTextBegin = 37;
inline constexpr uint32_t kRuleTextBlob = 38;
// ClusteredIndex (src/index/clustered_index.h).
inline constexpr uint32_t kIndexLists = 50;
inline constexpr uint32_t kIndexLengthGroups = 51;
inline constexpr uint32_t kIndexOriginGroups = 52;
inline constexpr uint32_t kIndexEntries = 53;

/// Engine-wide scalars every component's wiring cross-checks its section
/// sizes against. Fixed 64-byte POD stored as section kMeta.
struct Meta {
  uint64_t num_origins = 0;
  uint64_t num_derived = 0;
  uint64_t token_count = 0;  // dictionary size when the image was packed
  uint64_t min_set_size = 0;
  uint64_t max_set_size = 0;
  double avg_applicable_rules = 0.0;
  uint64_t num_rules = 0;  // rule lines in kRuleTextBegin/kRuleTextBlob
  uint8_t reserved[8] = {};
};
static_assert(sizeof(Meta) == 64, "meta must stay 64 bytes");
static_assert(std::is_trivially_copyable_v<Meta>);
}  // namespace img

/// Owning heap buffer aligned to kImageAlignment — the heap backing of an
/// engine image on the online build path. Allocated through (replaced)
/// operator new so bench_micro_ops' allocation accounting sees it.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  explicit AlignedBuffer(size_t size)
      : data_(size == 0
                  ? nullptr
                  : static_cast<uint8_t*>(::operator new[](
                        size, std::align_val_t{kImageAlignment}))),
        size_(size) {}
  ~AlignedBuffer() { Free(); }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;
  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      Free();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  uint8_t* data() { return data_; }
  [[nodiscard]] const uint8_t* data() const { return data_; }
  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] Span<uint8_t> bytes() const {
    return Span<uint8_t>(data_, size_);
  }

 private:
  void Free() {
    if (data_ != nullptr) {
      ::operator delete[](data_, std::align_val_t{kImageAlignment});
    }
  }
  uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

/// Accumulates sections, then lays them out into one AlignedBuffer with
/// header, section table and per-section CRC32c. Build-time only; the
/// serving path never touches it.
class ImageBuilder {
 public:
  /// Queues one section (payload copied). Ids must be unique — duplicates
  /// are reported by Finish().
  void Add(uint32_t id, uint32_t elem_size, const void* data, size_t length);

  template <typename T>
  void AddArray(uint32_t id, const T* data, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "image sections hold trivially copyable types only");
    static_assert(alignof(T) <= kImageAlignment);
    Add(id, static_cast<uint32_t>(sizeof(T)), data, count * sizeof(T));
  }
  template <typename T>
  void AddVector(uint32_t id, const std::vector<T>& v) {
    AddArray(id, v.data(), v.size());
  }
  template <typename T>
  void AddPod(uint32_t id, const T& pod) {
    AddArray(id, &pod, 1);
  }

  /// Lays out and checksums the final image. The builder may be reused
  /// afterwards (sections stay queued), but callers never do.
  [[nodiscard]] Result<AlignedBuffer> Finish() const;

 private:
  struct Pending {
    uint32_t id = 0;
    uint32_t elem_size = 0;
    std::vector<uint8_t> bytes;
  };
  std::vector<Pending> sections_;
};

/// Validated, typed read access into an image buffer (heap or mmap). Holds
/// only spans into the caller's buffer — parsing allocates nothing, and the
/// buffer must outlive every span handed out.
class ImageView {
 public:
  /// Validates header, endianness, section table and (always) every
  /// section's CRC32c. Any inconsistency — truncation, overlap with the
  /// header, out-of-file ranges, misalignment, duplicate ids, checksum
  /// mismatch — returns a Status; Parse never aborts on hostile input.
  static Result<ImageView> Parse(Span<uint8_t> bytes);

  [[nodiscard]] bool has(uint32_t id) const { return Find(id) != nullptr; }

  /// Typed section accessor: element size and divisibility are checked
  /// against the section table.
  template <typename T>
  [[nodiscard]] Result<Span<T>> array(uint32_t id) const {
    static_assert(std::is_trivially_copyable_v<T>);
    const SectionEntry* e = Find(id);
    if (e == nullptr) {
      return Status::IOError("engine image: missing section " +
                             std::to_string(id));
    }
    if (e->elem_size != sizeof(T) || e->length % sizeof(T) != 0) {
      return Status::IOError("engine image: section " + std::to_string(id) +
                             " has mismatched element size");
    }
    return Span<T>(reinterpret_cast<const T*>(bytes_.data() + e->offset),
                   static_cast<size_t>(e->length / sizeof(T)));
  }

  /// Single-POD section (exactly one element).
  template <typename T>
  [[nodiscard]] Result<T> pod(uint32_t id) const {
    AEETES_ASSIGN_OR_RETURN(Span<T> span, array<T>(id));
    if (span.size() != 1) {
      return Status::IOError("engine image: section " + std::to_string(id) +
                             " is not a single record");
    }
    return span[0];
  }

  [[nodiscard]] Span<uint8_t> bytes() const { return bytes_; }
  [[nodiscard]] size_t section_count() const { return table_.size(); }

 private:
  [[nodiscard]] const SectionEntry* Find(uint32_t id) const;

  Span<uint8_t> bytes_;
  Span<SectionEntry> table_;  // points into bytes_
};

}  // namespace aeetes

#endif  // AEETES_COMMON_ARENA_H_
