#include "src/common/checksum.h"

#include <cstring>

namespace aeetes {

namespace {

/// Reflected Castagnoli polynomial.
constexpr uint32_t kPoly = 0x82F63B78u;

struct Crc32cTables {
  uint32_t t[8][256];
};

Crc32cTables MakeTables() {
  Crc32cTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? kPoly : 0u);
    }
    tables.t[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = tables.t[0][i];
    for (int k = 1; k < 8; ++k) {
      crc = tables.t[0][crc & 0xFFu] ^ (crc >> 8);
      tables.t[k][i] = crc;
    }
  }
  return tables;
}

const Crc32cTables kTables = MakeTables();

#if defined(__x86_64__) && defined(__GNUC__)
#define AEETES_CRC32C_HW 1

/// SSE4.2 `crc32` computes exactly this CRC (reflected Castagnoli).
/// Checksumming is the dominant cost of an engine-image snapshot load, so
/// the hardware path matters: ~20 GB/s vs ~2 GB/s for slicing-by-8.
__attribute__((target("sse4.2"))) uint32_t Crc32cHw(uint32_t crc,
                                                    const unsigned char* p,
                                                    size_t n) {
  crc = ~crc;
  uint64_t crc64 = crc;
  while (n >= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    crc64 = __builtin_ia32_crc32di(crc64, word);
    p += 8;
    n -= 8;
  }
  crc = static_cast<uint32_t>(crc64);
  while (n-- != 0) {
    crc = __builtin_ia32_crc32qi(crc, *p++);
  }
  return ~crc;
}

bool HaveCrc32cHw() {
  static const bool have = __builtin_cpu_supports("sse4.2");
  return have;
}
#endif  // __x86_64__ && __GNUC__

}  // namespace

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
#ifdef AEETES_CRC32C_HW
  if (HaveCrc32cHw()) return Crc32cHw(crc, p, n);
#endif
  crc = ~crc;
  // Slicing-by-8: consume 8 bytes per iteration through the 8 tables. The
  // image format is little-endian only (checked via the header's endian
  // mark before any checksum is verified), so reading the word LE is fine.
  while (n >= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    word ^= crc;
    crc = kTables.t[7][word & 0xFFu] ^
          kTables.t[6][(word >> 8) & 0xFFu] ^
          kTables.t[5][(word >> 16) & 0xFFu] ^
          kTables.t[4][(word >> 24) & 0xFFu] ^
          kTables.t[3][(word >> 32) & 0xFFu] ^
          kTables.t[2][(word >> 40) & 0xFFu] ^
          kTables.t[1][(word >> 48) & 0xFFu] ^
          kTables.t[0][(word >> 56) & 0xFFu];
    p += 8;
    n -= 8;
  }
  while (n-- != 0) {
    crc = kTables.t[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

}  // namespace aeetes
