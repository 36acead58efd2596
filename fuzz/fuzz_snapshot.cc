// Fuzz target: snapshot loading — the primary untrusted-byte surface.
// Drives both entry points over the same input:
//  1. EngineImage::FromBuffer — the engine-image arena parse + view wiring
//     (ImageView::Parse, section table, CRC32c, alignment checks);
//  2. LoadSnapshot — the full on-disk dispatch (v1 record parse / image
//     mmap), through a real temp file so the mmap path itself is
//     exercised.
// The contract under test is snapshot.h's: corrupt, truncated or
// bit-flipped input yields a Status, never a crash — so the harness just
// feeds bytes and, when a hostile image somehow parses, runs one
// extraction to prove the wired views are actually usable.
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/common/arena.h"
#include "src/core/aeetes.h"
#include "src/core/engine_image.h"
#include "src/io/snapshot.h"

namespace {

void DriveLoadedEngine(aeetes::Aeetes& engine) {
  aeetes::Document doc = engine.EncodeDocument("acme corp of new york");
  auto result = engine.Extract(doc, 0.8);
  if (result.ok()) {
    (void)result->matches.size();
  }
}

void FuzzFromBuffer(const uint8_t* data, size_t size) {
  aeetes::AlignedBuffer buffer(size);
  if (size != 0) std::memcpy(buffer.data(), data, size);
  auto image = aeetes::EngineImage::FromBuffer(std::move(buffer));
  if (!image.ok()) return;
  auto engine = aeetes::Aeetes::FromImage(std::move(*image));
  if (!engine.ok()) return;
  DriveLoadedEngine(**engine);
}

void FuzzLoadSnapshot(const uint8_t* data, size_t size) {
  char path[] = "/tmp/aeetes_fuzz_snapshot_XXXXXX";
  const int fd = mkstemp(path);
  if (fd < 0) return;
  const ssize_t written = write(fd, data, size);
  close(fd);
  if (written == static_cast<ssize_t>(size)) {
    auto engine = aeetes::LoadSnapshot(path);
    if (engine.ok()) DriveLoadedEngine(**engine);
  }
  unlink(path);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  FuzzFromBuffer(data, size);
  FuzzLoadSnapshot(data, size);
  return 0;
}
