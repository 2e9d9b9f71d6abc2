#include "common/crc32.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#define RAIZN_CRC32C_SSE42 1
#endif

namespace raizn {

namespace {
constexpr uint32_t kPoly = 0x82f63b78; // CRC32C reflected polynomial

/// 3 * 1360 + 16 = 4096: a 4 KiB sector is one interleaved block plus
/// two u64 steps. A multiple of 8, so each stream runs u64 steps only.
constexpr size_t kLane = detail::kCrc32cLane;
static_assert(kLane % 8 == 0);

/// All CRC state below is the raw register (no pre/post inversion).
struct Tables {
    /// One-byte step: crc' = (crc >> 8) ^ byte[(crc ^ b) & 0xff].
    uint32_t byte[256];
    /// The linear map "feed kLane zero bytes", split per state byte:
    /// Z(crc) = zeros[0][crc & 0xff] ^ ... ^ zeros[3][crc >> 24].
    uint32_t zeros[4][256];
};

Tables
make_tables()
{
    Tables t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t crc = i;
        for (int k = 0; k < 8; ++k)
            crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
        t.byte[i] = crc;
    }
    // Z is linear over GF(2): find it on the 32 unit states, then
    // assemble each byte-indexed table from those columns.
    uint32_t column[32];
    for (int bit = 0; bit < 32; ++bit) {
        uint32_t crc = 1u << bit;
        for (size_t i = 0; i < kLane; ++i)
            crc = (crc >> 8) ^ t.byte[crc & 0xff];
        column[bit] = crc;
    }
    for (int k = 0; k < 4; ++k) {
        for (uint32_t v = 0; v < 256; ++v) {
            uint32_t out = 0;
            for (int b = 0; b < 8; ++b) {
                if (v & (1u << b))
                    out ^= column[8 * k + b];
            }
            t.zeros[k][v] = out;
        }
    }
    return t;
}

/// Function-local static: valid even when a CRC is taken during static
/// initialisation of another translation unit.
const Tables &
tables()
{
    static const Tables t = make_tables();
    return t;
}

uint32_t
update_portable(uint32_t crc, const uint8_t *p, size_t len)
{
    const uint32_t *byte = tables().byte;
    for (size_t i = 0; i < len; ++i)
        crc = (crc >> 8) ^ byte[(crc ^ p[i]) & 0xff];
    return crc;
}

#if RAIZN_CRC32C_SSE42
uint64_t
load64(const uint8_t *p)
{
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

uint32_t
shift_lane(const Tables &t, uint32_t crc)
{
    return t.zeros[0][crc & 0xff] ^ t.zeros[1][(crc >> 8) & 0xff] ^
        t.zeros[2][(crc >> 16) & 0xff] ^ t.zeros[3][crc >> 24];
}

/**
 * Long buffers run as blocks of three kLane-byte streams, so three
 * independent crc32 instructions overlap their latency. With Z = "feed
 * kLane zero bytes", a block A|B|C from state r is
 *   crc(r, A|B|C) = Z(Z(crc(r, A)) ^ crc(0, B)) ^ crc(0, C).
 * The tail runs u64 then u8 steps.
 */
__attribute__((target("sse4.2"))) uint32_t
update_sse42(uint32_t crc, const uint8_t *p, size_t len)
{
    if (len >= 3 * kLane) {
        const Tables &t = tables();
        do {
            uint64_t c0 = crc, c1 = 0, c2 = 0;
            for (size_t i = 0; i < kLane; i += 8) {
                c0 = _mm_crc32_u64(c0, load64(p + i));
                c1 = _mm_crc32_u64(c1, load64(p + kLane + i));
                c2 = _mm_crc32_u64(c2, load64(p + 2 * kLane + i));
            }
            crc = shift_lane(t, static_cast<uint32_t>(c0)) ^
                static_cast<uint32_t>(c1);
            crc = shift_lane(t, crc) ^ static_cast<uint32_t>(c2);
            p += 3 * kLane;
            len -= 3 * kLane;
        } while (len >= 3 * kLane);
    }
    uint64_t c = crc;
    for (; len >= 8; p += 8, len -= 8)
        c = _mm_crc32_u64(c, load64(p));
    crc = static_cast<uint32_t>(c);
    for (; len > 0; ++p, --len)
        crc = _mm_crc32_u8(crc, *p);
    return crc;
}
#endif

using Kernel = uint32_t (*)(uint32_t, const uint8_t *, size_t);

Kernel
kernel()
{
    static const Kernel k = [] {
#if RAIZN_CRC32C_SSE42
        // May run before constructors: initialise the CPU model first.
        __builtin_cpu_init();
        if (__builtin_cpu_supports("sse4.2"))
            return &update_sse42;
#endif
        return &update_portable;
    }();
    return k;
}
} // namespace

uint32_t
crc32c(const void *data, size_t len, uint32_t seed)
{
    return ~kernel()(~seed, static_cast<const uint8_t *>(data), len);
}

namespace detail {

uint32_t
crc32c_portable(const void *data, size_t len, uint32_t seed)
{
    return ~update_portable(~seed, static_cast<const uint8_t *>(data),
                            len);
}

bool
crc32c_hw_active()
{
    return kernel() != &update_portable;
}

} // namespace detail

} // namespace raizn
