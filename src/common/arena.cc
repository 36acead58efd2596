#include "src/common/arena.h"

#include <cstring>

#include "src/common/checksum.h"

namespace aeetes {

namespace {

size_t AlignUp(size_t n) {
  return (n + kImageAlignment - 1) & ~(kImageAlignment - 1);
}

}  // namespace

void ImageBuilder::Add(uint32_t id, uint32_t elem_size, const void* data,
                       size_t length) {
  Pending p;
  p.id = id;
  p.elem_size = elem_size;
  p.bytes.resize(length);
  if (length > 0) std::memcpy(p.bytes.data(), data, length);
  sections_.push_back(std::move(p));
}

Result<AlignedBuffer> ImageBuilder::Finish() const {
  if (sections_.size() > kImageMaxSections) {
    return Status::InvalidArgument("image has too many sections");
  }
  for (size_t i = 0; i < sections_.size(); ++i) {
    for (size_t j = i + 1; j < sections_.size(); ++j) {
      if (sections_[i].id == sections_[j].id) {
        return Status::InvalidArgument("duplicate image section id " +
                                       std::to_string(sections_[i].id));
      }
    }
  }

  const size_t table_offset = sizeof(ImageHeader);
  const size_t table_bytes = sections_.size() * sizeof(SectionEntry);
  std::vector<SectionEntry> table(sections_.size());
  size_t cursor = AlignUp(table_offset + table_bytes);
  for (size_t i = 0; i < sections_.size(); ++i) {
    const Pending& p = sections_[i];
    table[i].id = p.id;
    table[i].elem_size = p.elem_size;
    table[i].offset = cursor;
    table[i].length = p.bytes.size();
    table[i].crc32c = Crc32c(p.bytes.data(), p.bytes.size());
    cursor = AlignUp(cursor + p.bytes.size());
  }
  const size_t total = cursor;

  AlignedBuffer buffer(total);
  std::memset(buffer.data(), 0, total);  // deterministic padding bytes
  for (size_t i = 0; i < sections_.size(); ++i) {
    if (!sections_[i].bytes.empty()) {
      std::memcpy(buffer.data() + table[i].offset, sections_[i].bytes.data(),
                  sections_[i].bytes.size());
    }
  }
  if (!table.empty()) {
    std::memcpy(buffer.data() + table_offset, table.data(), table_bytes);
  }

  ImageHeader header;
  header.magic = kImageMagic;
  header.version = kImageVersion;
  header.file_size = total;
  header.endian_mark = kImageEndianMark;
  header.section_count = static_cast<uint32_t>(sections_.size());
  header.table_offset = table_offset;
  header.table_crc32c = Crc32c(buffer.data() + table_offset, table_bytes);
  std::memcpy(buffer.data(), &header, sizeof(header));
  return buffer;
}

namespace {

/// OK for kImageVersion. A retired image version yields
/// FailedPrecondition naming it (the file is intact but must be rebuilt);
/// anything else is an IOError.
Status CheckImageVersion(uint32_t version) {
  if (version == kImageVersion) return Status::OK();
  if (version >= kFirstImageVersion && version < kImageVersion) {
    return Status::FailedPrecondition(
        "engine image: version " + std::to_string(version) +
        " is no longer supported (this build reads version " +
        std::to_string(kImageVersion) + "); rebuild the snapshot from its "
        "entities and rules");
  }
  return Status::IOError("engine image: unsupported version " +
                         std::to_string(version));
}

}  // namespace

const SectionEntry* ImageView::Find(uint32_t id) const {
  // Linear scan: the table is tiny (≤ ~25 entries) and lookups happen a
  // fixed number of times per load, never on the extraction path.
  for (const SectionEntry& e : table_) {
    if (e.id == id) return &e;
  }
  return nullptr;
}

Result<ImageView> ImageView::Parse(Span<uint8_t> bytes) {
  if (bytes.size() < sizeof(ImageHeader)) {
    return Status::IOError("engine image: shorter than its header");
  }
  ImageHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  if (header.magic != kImageMagic) {
    return Status::IOError("engine image: bad magic");
  }
  AEETES_RETURN_IF_ERROR(CheckImageVersion(header.version));
  if (header.endian_mark != kImageEndianMark) {
    return Status::IOError("engine image: endianness mismatch");
  }
  if (header.file_size != bytes.size()) {
    return Status::IOError("engine image: truncated or padded file");
  }
  if (header.table_offset != sizeof(ImageHeader)) {
    return Status::IOError("engine image: bad section table offset");
  }
  if (header.section_count > kImageMaxSections) {
    return Status::IOError("engine image: too many sections");
  }
  const size_t table_bytes =
      static_cast<size_t>(header.section_count) * sizeof(SectionEntry);
  if (table_bytes > bytes.size() - sizeof(ImageHeader)) {
    return Status::IOError("engine image: section table past end of file");
  }
  const uint8_t* table_ptr = bytes.data() + sizeof(ImageHeader);
  if (Crc32c(table_ptr, table_bytes) != header.table_crc32c) {
    return Status::IOError("engine image: section table checksum mismatch");
  }

  ImageView view;
  view.bytes_ = bytes;
  view.table_ = Span<SectionEntry>(
      reinterpret_cast<const SectionEntry*>(table_ptr), header.section_count);

  const size_t payload_start = AlignUp(sizeof(ImageHeader) + table_bytes);
  for (size_t i = 0; i < view.table_.size(); ++i) {
    const SectionEntry& e = view.table_[i];
    if (e.offset % kImageAlignment != 0) {
      return Status::IOError("engine image: misaligned section " +
                             std::to_string(e.id));
    }
    if (e.offset < payload_start || e.offset > bytes.size() ||
        e.length > bytes.size() - e.offset) {
      return Status::IOError("engine image: section " + std::to_string(e.id) +
                             " out of bounds");
    }
    if (e.elem_size == 0 || e.length % e.elem_size != 0) {
      return Status::IOError("engine image: section " + std::to_string(e.id) +
                             " has invalid element size");
    }
    for (size_t j = 0; j < i; ++j) {
      if (view.table_[j].id == e.id) {
        return Status::IOError("engine image: duplicate section " +
                               std::to_string(e.id));
      }
    }
    if (Crc32c(bytes.data() + e.offset, e.length) != e.crc32c) {
      return Status::IOError("engine image: checksum mismatch in section " +
                             std::to_string(e.id));
    }
  }
  return view;
}

}  // namespace aeetes
