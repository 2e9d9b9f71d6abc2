#include "array/gf256.h"

#if defined(__x86_64__)
#include <immintrin.h>
#define RAIZN_GF256_AVX2 1
#endif

namespace raizn::gf256 {

namespace {

struct Tables {
    uint8_t exp[512]; ///< doubled so exp[a+b] needs no mod
    uint8_t log[256];

    Tables()
    {
        uint16_t x = 1;
        for (unsigned i = 0; i < 255; ++i) {
            exp[i] = static_cast<uint8_t>(x);
            log[x] = static_cast<uint8_t>(i);
            x <<= 1;
            if (x & 0x100)
                x ^= 0x11d;
        }
        for (unsigned i = 255; i < 512; ++i)
            exp[i] = exp[i - 255];
        log[0] = 0; // never consulted for 0
    }
};

const Tables &
tables()
{
    static const Tables t;
    return t;
}

/**
 * solve_two's closed form. With P' = Dx ^ Dy and Q' = g^x*Dx ^ g^y*Dy:
 *   Dx = (g^(y-x) * P' ^ g^(-x) * Q') / (g^(y-x) ^ 1) = a*P' ^ b*Q'
 *   Dy = P' ^ Dx
 * with the division folded into the two constants.
 */
void
solve_coeffs(unsigned x, unsigned y, uint8_t *a, uint8_t *b)
{
    uint8_t gyx = exp2(255 + y - x);
    uint8_t gnx = exp2(255 - (x % 255));
    uint8_t denom_inv = inv(static_cast<uint8_t>(gyx ^ 1));
    *a = mul(denom_inv, gyx);
    *b = mul(denom_inv, gnx);
}

#if RAIZN_GF256_AVX2
/**
 * Multiplication by a constant c, split by nibble: since the product is
 * linear over GF(2), c*s = c*(s & 0x0f) ^ c*(s & 0xf0), and each half
 * is one of 16 values.
 */
struct Nibbles {
    uint8_t lo[16]; ///< c * i
    uint8_t hi[16]; ///< c * (i << 4)

    explicit Nibbles(uint8_t c)
    {
        for (unsigned i = 0; i < 16; ++i) {
            lo[i] = mul(c, static_cast<uint8_t>(i));
            hi[i] = mul(c, static_cast<uint8_t>(i << 4));
        }
    }

    uint8_t operator()(uint8_t s) const { return lo[s & 15] ^ hi[s >> 4]; }
};

/// Nibbles broadcast to both 128-bit lanes, as _mm256_shuffle_epi8
/// looks up within each lane.
struct VecNibbles {
    __m256i lo, hi;

    __attribute__((target("avx2"))) explicit VecNibbles(const Nibbles &n)
        : lo(_mm256_broadcastsi128_si256(
              _mm_loadu_si128(reinterpret_cast<const __m128i *>(n.lo)))),
          hi(_mm256_broadcastsi128_si256(
              _mm_loadu_si128(reinterpret_cast<const __m128i *>(n.hi))))
    {
    }

    /// c * s for 32 bytes.
    __attribute__((target("avx2"))) __m256i
    operator()(__m256i s) const
    {
        const __m256i mask = _mm256_set1_epi8(0x0f);
        __m256i l = _mm256_and_si256(s, mask);
        __m256i h = _mm256_and_si256(_mm256_srli_epi64(s, 4), mask);
        return _mm256_xor_si256(_mm256_shuffle_epi8(lo, l),
                                _mm256_shuffle_epi8(hi, h));
    }
};

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

/// acc ^= c*src, 64 bytes per step (two independent lanes), then one
/// 32-byte step and a scalar nibble-table tail.
__attribute__((target("avx2"))) void
accumulate_avx2(uint8_t *acc, const uint8_t *src, size_t len,
                unsigned coeff_exp)
{
    const Nibbles n(exp2(coeff_exp));
    const VecNibbles v(n);
    size_t i = 0;
    for (; i + 64 <= len; i += 64) {
        __m256i a = _mm256_xor_si256(ld(acc + i), v(ld(src + i)));
        __m256i b = _mm256_xor_si256(ld(acc + i + 32), v(ld(src + i + 32)));
        st(acc + i, a);
        st(acc + i + 32, b);
    }
    if (i + 32 <= len) {
        st(acc + i, _mm256_xor_si256(ld(acc + i), v(ld(src + i))));
        i += 32;
    }
    for (; i < len; ++i)
        acc[i] ^= n(src[i]);
}

/// The fused solve: one pass reads P' and Q' and writes Dx and/or Dy.
__attribute__((target("avx2"))) void
solve_two_avx2(uint8_t *dx, uint8_t *dy, const uint8_t *p,
               const uint8_t *q, size_t len, unsigned x, unsigned y)
{
    uint8_t a, b;
    solve_coeffs(x, y, &a, &b);
    const Nibbles na(a), nb(b);
    const VecNibbles va(na), vb(nb);
    size_t i = 0;
    for (; i + 32 <= len; i += 32) {
        __m256i vp = ld(p + i);
        __m256i vx = _mm256_xor_si256(va(vp), vb(ld(q + i)));
        if (dx != nullptr)
            st(dx + i, vx);
        if (dy != nullptr)
            st(dy + i, _mm256_xor_si256(vp, vx));
    }
    for (; i < len; ++i) {
        uint8_t vx = na(p[i]) ^ nb(q[i]);
        if (dx != nullptr)
            dx[i] = vx;
        if (dy != nullptr)
            dy[i] = p[i] ^ vx;
    }
}
#endif

struct Kernels {
    decltype(&detail::accumulate_portable) accumulate;
    decltype(&detail::solve_two_portable) solve_two;
};

const Kernels &
kernels()
{
    static const Kernels k = []() -> Kernels {
#if RAIZN_GF256_AVX2
        // May run before constructors: initialise the CPU model first.
        __builtin_cpu_init();
        if (__builtin_cpu_supports("avx2"))
            return {&accumulate_avx2, &solve_two_avx2};
#endif
        return {&detail::accumulate_portable, &detail::solve_two_portable};
    }();
    return k;
}

} // namespace

uint8_t
mul(uint8_t a, uint8_t b)
{
    if (a == 0 || b == 0)
        return 0;
    const Tables &t = tables();
    return t.exp[t.log[a] + t.log[b]];
}

uint8_t
inv(uint8_t a)
{
    const Tables &t = tables();
    return t.exp[255 - t.log[a]];
}

uint8_t
exp2(unsigned e)
{
    return tables().exp[e % 255];
}

void
accumulate(uint8_t *acc, const uint8_t *src, size_t len,
           unsigned coeff_exp)
{
    kernels().accumulate(acc, src, len, coeff_exp);
}

void
solve_two(uint8_t *dx, uint8_t *dy, const uint8_t *p, const uint8_t *q,
          size_t len, unsigned x, unsigned y)
{
    kernels().solve_two(dx, dy, p, q, len, x, y);
}

namespace detail {

void
accumulate_portable(uint8_t *acc, const uint8_t *src, size_t len,
                    unsigned coeff_exp)
{
    const Tables &t = tables();
    unsigned ce = coeff_exp % 255;
    for (size_t i = 0; i < len; ++i) {
        uint8_t s = src[i];
        if (s != 0)
            acc[i] ^= t.exp[t.log[s] + ce];
    }
}

void
solve_two_portable(uint8_t *dx, uint8_t *dy, const uint8_t *p,
                   const uint8_t *q, size_t len, unsigned x, unsigned y)
{
    const Tables &t = tables();
    uint8_t a, b;
    solve_coeffs(x, y, &a, &b);
    const unsigned la = t.log[a], lb = t.log[b];
    for (size_t i = 0; i < len; ++i) {
        uint8_t vx = static_cast<uint8_t>(
            (p[i] != 0 ? t.exp[t.log[p[i]] + la] : 0) ^
            (q[i] != 0 ? t.exp[t.log[q[i]] + lb] : 0));
        if (dx != nullptr)
            dx[i] = vx;
        if (dy != nullptr)
            dy[i] = p[i] ^ vx;
    }
}

bool
avx2_active()
{
    return kernels().accumulate != &accumulate_portable;
}

} // namespace detail

} // namespace raizn::gf256
