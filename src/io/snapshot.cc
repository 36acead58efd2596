#include "src/io/snapshot.h"

#include <cstdio>
#include <fstream>
#include <utility>

#include "src/common/arena.h"
#include "src/common/metrics.h"
#include "src/core/engine_image.h"
#include "src/io/binary_stream.h"

namespace aeetes {

namespace {

constexpr uint32_t kMagic = 0x54454541;  // "AEET" — shared by v1 and images
constexpr uint32_t kV1Version = 1;

/// Reads the 8-byte (magic, version) prologue both formats share.
Status SniffHeader(const std::string& path, uint32_t* magic,
                   uint32_t* version) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open " + path + " for read");
  }
  uint32_t header[2] = {0, 0};
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  if (static_cast<size_t>(in.gcount()) != sizeof(header)) {
    return Status::IOError("not an Aeetes snapshot (too short): " + path);
  }
  *magic = header[0];
  *version = header[1];
  return Status::OK();
}

Result<std::unique_ptr<Aeetes>> LoadSnapshotV1(const std::string& path,
                                               AeetesOptions options) {
  BinaryReader r(path);
  if (r.ReadU32() != kMagic || r.ReadU32() != kV1Version) {
    return Status::InvalidArgument("not a v1 Aeetes snapshot: " + path);
  }

  auto dict = std::make_unique<TokenDictionary>();
  const uint64_t vocab = r.ReadU64();
  if (vocab > BinaryReader::kMaxElements) {
    return Status::IOError("corrupt snapshot: vocabulary size");
  }
  for (uint64_t i = 0; i < vocab && r.ok(); ++i) {
    const std::string text = r.ReadString();
    const uint64_t freq = r.ReadU64();
    const TokenId id = dict->GetOrAdd(text);
    if (id != i) {
      return Status::IOError("corrupt snapshot: duplicate token text");
    }
    if (freq > 0) {
      AEETES_RETURN_IF_ERROR(dict->AddFrequency(id, freq));
    }
  }
  dict->Freeze();

  const uint64_t num_origins = r.ReadU64();
  if (num_origins > BinaryReader::kMaxElements) {
    return Status::IOError("corrupt snapshot: origin count");
  }
  std::vector<TokenSeq> origins;
  origins.reserve(num_origins);
  for (uint64_t i = 0; i < num_origins && r.ok(); ++i) {
    origins.push_back(r.ReadU32Vector());
  }

  const uint64_t num_derived = r.ReadU64();
  if (num_derived > BinaryReader::kMaxElements) {
    return Status::IOError("corrupt snapshot: derived count");
  }
  std::vector<DerivedEntity> derived;
  derived.reserve(num_derived);
  for (uint64_t i = 0; i < num_derived && r.ok(); ++i) {
    DerivedEntity de;
    de.origin = r.ReadU32();
    de.tokens = r.ReadU32Vector();
    de.ordered_set = r.ReadU32Vector();
    de.applied_rules = r.ReadU32Vector();
    de.weight = r.ReadDouble();
    derived.push_back(std::move(de));
  }

  const std::vector<uint32_t> begins = r.ReadU32Vector();
  const double avg_applicable = r.ReadDouble();
  AEETES_RETURN_IF_ERROR(r.status());

  AEETES_ASSIGN_OR_RETURN(
      auto dd, DerivedDictionary::FromParts(
                   std::move(origins), std::move(derived),
                   std::vector<DerivedId>(begins.begin(), begins.end()),
                   std::move(dict), avg_applicable));
  return Aeetes::FromDerivedDictionary(std::move(dd), options);
}

uint64_t FileSizeOf(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = in.tellg();
  return (in && size > 0) ? static_cast<uint64_t>(size) : 0;
}

}  // namespace

Status SaveSnapshot(const Aeetes& aeetes, const std::string& path) {
  const Span<uint8_t> bytes = aeetes.image().bytes();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open " + path + " for write");
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    return Status::IOError("write failed: " + path);
  }
  return Status::OK();
}

Status SaveVersionedSnapshot(const Aeetes& aeetes, const std::string& dir,
                             const std::string& name, uint64_t version,
                             std::string* out_path) {
  const std::string path =
      dir + "/" + name + ".v" + std::to_string(version) + ".snap";
  const std::string tmp = path + ".tmp";
  AEETES_RETURN_IF_ERROR(SaveSnapshot(aeetes, tmp));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("rename failed: " + tmp + " -> " + path);
  }
  if (out_path != nullptr) *out_path = path;
  return Status::OK();
}

Status SaveSnapshotV1(const Aeetes& aeetes, const std::string& path) {
  const DerivedDictionary& dd = aeetes.derived_dictionary();
  const TokenDictionary& dict = dd.token_dict();

  BinaryWriter w(path);
  w.WriteU32(kMagic);
  w.WriteU32(kV1Version);

  // Token dictionary: texts in id order + frequencies.
  w.WriteU64(dict.size());
  for (TokenId t = 0; t < dict.size(); ++t) {
    w.WriteString(dict.Text(t));
    w.WriteU64(dict.frequency(t));
  }

  // Origin entities.
  w.WriteU64(dd.num_origins());
  for (EntityId e = 0; e < dd.num_origins(); ++e) {
    w.WriteU32Span(dd.origin_entity(e));
  }

  // Derived entities.
  w.WriteU64(dd.num_derived());
  for (DerivedId d = 0; d < dd.num_derived(); ++d) {
    const DerivedView de = dd.derived(d);
    w.WriteU32(de.origin);
    w.WriteU32Span(de.tokens);
    w.WriteU32Span(de.ordered_set);
    w.WriteU32Span(de.applied_rules);
    w.WriteDouble(de.weight);
  }

  // Offset table + statistics.
  std::vector<uint32_t> begins;
  begins.reserve(dd.num_origins() + 1);
  begins.push_back(0);
  for (EntityId e = 0; e < dd.num_origins(); ++e) {
    begins.push_back(dd.DerivedRange(e).second);
  }
  w.WriteU32Vector(begins);
  w.WriteDouble(dd.avg_applicable_rules());
  return w.Finish();
}

Result<std::unique_ptr<Aeetes>> LoadSnapshot(const std::string& path,
                                             AeetesOptions options) {
  uint32_t magic = 0;
  uint32_t version = 0;
  AEETES_RETURN_IF_ERROR(SniffHeader(path, &magic, &version));
  if (magic != kMagic) {
    return Status::InvalidArgument("not an Aeetes snapshot: " + path);
  }

  double load_ms = 0.0;
  std::unique_ptr<Aeetes> engine;
  bool mmap_backed = false;
  if (version == kV1Version) {
    ScopedTimer timer(nullptr, &load_ms);
    AEETES_ASSIGN_OR_RETURN(engine, LoadSnapshotV1(path, options));
  } else {
    // Every other version is an engine image; ImageView::Parse refuses
    // retired and unknown versions.
    ScopedTimer timer(nullptr, &load_ms);
    AEETES_ASSIGN_OR_RETURN(std::unique_ptr<EngineImage> image,
                            EngineImage::FromFile(path));
    AEETES_ASSIGN_OR_RETURN(engine,
                            Aeetes::FromImage(std::move(image), options));
    mmap_backed = true;
  }
  engine->PublishSnapshotMetrics(load_ms * 1e3, FileSizeOf(path),
                                 mmap_backed);
  return engine;
}

}  // namespace aeetes
