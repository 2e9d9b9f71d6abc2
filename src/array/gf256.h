/**
 * @file
 * GF(2^8) arithmetic for RAID-6 Q parity (polynomial 0x11d, generator
 * g = 2), the same field the kernel's raid6 engine uses. Q for a
 * stripe is Q = sum_i g^i * D_i; together with P = XOR(D_i) any two
 * lost data units (or one data unit plus P or Q) are recoverable.
 *
 * The region kernels (accumulate, solve_two) pick their implementation
 * once per process: AVX2 split-nibble multiplies (two 16-entry product
 * tables per constant, looked up with a byte shuffle) when the CPU has
 * AVX2, else the portable log/exp table loops. Both compute the same
 * bytes; the table loops are kept as the fallback and as the oracle the
 * tests compare the dispatched kernels against.
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace raizn::gf256 {

uint8_t mul(uint8_t a, uint8_t b);
uint8_t inv(uint8_t a);
/// g^e for generator g = 2 (e taken mod 255).
uint8_t exp2(unsigned e);

/// acc ^= g^coeff_exp * src over `len` bytes.
void accumulate(uint8_t *acc, const uint8_t *src, size_t len,
                unsigned coeff_exp);

/**
 * Recovers two lost data units x < y of a stripe from the surviving
 * units plus P' and Q', where `p` holds XOR of the surviving data units
 * XOR parity (i.e. P ^ known D_i) and `q` holds Q ^ sum(g^i * known
 * D_i). On return `dx`/`dy` hold the reconstructed units; either may
 * be null when only the other unit is wanted. All buffers are `len`
 * bytes, and the outputs must not overlap the inputs.
 */
void solve_two(uint8_t *dx, uint8_t *dy, const uint8_t *p,
               const uint8_t *q, size_t len, unsigned x, unsigned y);

namespace detail {

/// The portable log/exp loops (same contracts as the kernels above).
void accumulate_portable(uint8_t *acc, const uint8_t *src, size_t len,
                         unsigned coeff_exp);
void solve_two_portable(uint8_t *dx, uint8_t *dy, const uint8_t *p,
                        const uint8_t *q, size_t len, unsigned x,
                        unsigned y);

/// True when accumulate() and solve_two() run the AVX2 kernels.
bool avx2_active();

} // namespace detail

} // namespace raizn::gf256
