/**
 * @file
 * XOR of byte regions: P parity, partial-parity deltas and single-unit
 * reconstruction for every array.
 *
 * xor_bytes() picks its kernel once per process: a 32-byte AVX2 loop
 * when the CPU has it, else the portable u64 word loop. Both compute
 * the same bytes; the word loop is kept as the fallback and as the
 * oracle the tests compare the dispatched kernel against.
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace raizn {

/// XOR `n` bytes of `src` into `dst` (the ranges must not overlap).
void xor_bytes(uint8_t *dst, const uint8_t *src, size_t n);

namespace detail {

/// The portable word loop (same contract as xor_bytes()).
void xor_bytes_portable(uint8_t *dst, const uint8_t *src, size_t n);

/// True when xor_bytes() runs the AVX2 kernel on this CPU.
bool xor_avx2_active();

} // namespace detail

} // namespace raizn
