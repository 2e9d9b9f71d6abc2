#include "common/xor.h"

#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#define RAIZN_XOR_AVX2 1
#endif

namespace raizn {

namespace {

#if RAIZN_XOR_AVX2
__attribute__((target("avx2"))) inline __m256i
ld(const uint8_t *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

__attribute__((target("avx2"))) inline void
st(uint8_t *p, __m256i v)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
}

/// 128 bytes per step (four independent 32-byte lanes), then single
/// 32-byte steps; the last < 32 bytes run the portable loop.
__attribute__((target("avx2"))) void
xor_avx2(uint8_t *dst, const uint8_t *src, size_t n)
{
    size_t i = 0;
    for (; i + 128 <= n; i += 128) {
        __m256i a = _mm256_xor_si256(ld(dst + i), ld(src + i));
        __m256i b = _mm256_xor_si256(ld(dst + i + 32), ld(src + i + 32));
        __m256i c = _mm256_xor_si256(ld(dst + i + 64), ld(src + i + 64));
        __m256i d = _mm256_xor_si256(ld(dst + i + 96), ld(src + i + 96));
        st(dst + i, a);
        st(dst + i + 32, b);
        st(dst + i + 64, c);
        st(dst + i + 96, d);
    }
    for (; i + 32 <= n; i += 32)
        st(dst + i, _mm256_xor_si256(ld(dst + i), ld(src + i)));
    detail::xor_bytes_portable(dst + i, src + i, n - i);
}
#endif

using Kernel = void (*)(uint8_t *, const uint8_t *, size_t);

Kernel
kernel()
{
    static const Kernel k = [] {
#if RAIZN_XOR_AVX2
        // May run before constructors: initialise the CPU model first.
        __builtin_cpu_init();
        if (__builtin_cpu_supports("avx2"))
            return &xor_avx2;
#endif
        return &detail::xor_bytes_portable;
    }();
    return k;
}

} // namespace

void
xor_bytes(uint8_t *dst, const uint8_t *src, size_t n)
{
    kernel()(dst, src, n);
}

namespace detail {

void
xor_bytes_portable(uint8_t *dst, const uint8_t *src, size_t n)
{
    // memcpy word access: any alignment, no aliasing assumptions.
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        uint64_t d, s;
        std::memcpy(&d, dst + i, 8);
        std::memcpy(&s, src + i, 8);
        d ^= s;
        std::memcpy(dst + i, &d, 8);
    }
    for (; i < n; ++i)
        dst[i] ^= src[i];
}

bool
xor_avx2_active()
{
    return kernel() != &xor_bytes_portable;
}

} // namespace detail

} // namespace raizn
