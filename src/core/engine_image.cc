#include "src/core/engine_image.h"

#include <utility>

#include "src/common/metrics.h"
#include "src/text/token_dictionary.h"

namespace aeetes {

Status EngineImage::Wire(EngineImage& image, Span<uint8_t> bytes) {
  AEETES_ASSIGN_OR_RETURN(ImageView view, ImageView::Parse(bytes));
  AEETES_ASSIGN_OR_RETURN(const img::Meta meta,
                          view.pod<img::Meta>(img::kMeta));
  AEETES_ASSIGN_OR_RETURN(std::unique_ptr<TokenDictionary> dict,
                          TokenDictionary::WireFromImage(view));
  AEETES_ASSIGN_OR_RETURN(image.dd_, DerivedDictionary::WireFromImage(
                                         view, std::move(dict)));
  AEETES_ASSIGN_OR_RETURN(
      image.index_,
      ClusteredIndex::WireFromImage(view,
                                    static_cast<size_t>(meta.num_origins),
                                    static_cast<size_t>(meta.num_derived),
                                    static_cast<size_t>(meta.token_count)));
  return Status::OK();
}

Result<std::unique_ptr<EngineImage>> EngineImage::Pack(DerivedDictParts parts) {
  auto image = std::unique_ptr<EngineImage>(new EngineImage());

  double index_ms = 0.0;
  ClusteredIndex::Parts index_parts;
  {
    ScopedTimer timer(nullptr, &index_ms);
    index_parts = ClusteredIndex::BuildParts(parts);
  }

  double pack_ms = 0.0;
  const DerivedDictionaryBuildStats build_stats = parts.stats;
  {
    ScopedTimer timer(nullptr, &pack_ms);
    ImageBuilder builder;
    AEETES_RETURN_IF_ERROR(DerivedDictionary::AppendSections(parts, builder));
    ClusteredIndex::AppendSections(index_parts, builder);
    // The builder holds its own copy of every section now: free the
    // inputs before Finish lays out the image, so peak memory is two
    // copies of the image rather than three.
    parts = DerivedDictParts{};
    index_parts = ClusteredIndex::Parts{};
    AEETES_ASSIGN_OR_RETURN(image->heap_, builder.Finish());
  }

  double load_ms = 0.0;
  {
    ScopedTimer timer(nullptr, &load_ms);
    AEETES_RETURN_IF_ERROR(Wire(*image, image->heap_.bytes()));
  }
  image->dd_->set_build_stats(build_stats);
  image->stats_.index_ms = index_ms;
  image->stats_.pack_ms = pack_ms;
  image->stats_.load_ms = load_ms;
  image->stats_.mmap_backed = false;
  return image;
}

Result<std::unique_ptr<EngineImage>> EngineImage::FromFile(
    const std::string& path) {
  auto image = std::unique_ptr<EngineImage>(new EngineImage());
  double load_ms = 0.0;
  {
    ScopedTimer timer(nullptr, &load_ms);
    AEETES_ASSIGN_OR_RETURN(image->mapped_, MappedFile::Open(path));
    AEETES_RETURN_IF_ERROR(Wire(*image, image->mapped_.bytes()));
  }
  image->stats_.load_ms = load_ms;
  image->stats_.mmap_backed = true;
  return image;
}

Result<std::unique_ptr<EngineImage>> EngineImage::FromBuffer(
    AlignedBuffer buffer) {
  auto image = std::unique_ptr<EngineImage>(new EngineImage());
  image->heap_ = std::move(buffer);
  double load_ms = 0.0;
  {
    ScopedTimer timer(nullptr, &load_ms);
    AEETES_RETURN_IF_ERROR(Wire(*image, image->heap_.bytes()));
  }
  image->stats_.load_ms = load_ms;
  image->stats_.mmap_backed = false;
  return image;
}

}  // namespace aeetes
