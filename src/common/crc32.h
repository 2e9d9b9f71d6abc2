/**
 * @file
 * CRC32C (Castagnoli) used to checksum superblocks, metadata log entries,
 * WAL records, and SSTable blocks.
 *
 * crc32c() picks its kernel once per process: the SSE4.2 CRC32
 * instruction (three interleaved streams on long buffers) when the CPU
 * has it, else the portable byte-wise table loop. Both compute the same
 * function; the table loop is kept as the fallback and as the oracle the
 * tests compare the dispatched kernel against.
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace raizn {

/// CRC32C of `data[0, len)`, continuing from `seed` (0 to start).
uint32_t crc32c(const void *data, size_t len, uint32_t seed = 0);

namespace detail {

/// Bytes per stream in the hardware kernel's three-way interleave.
constexpr size_t kCrc32cLane = 1360;

/// The portable byte-wise table CRC32C (same contract as crc32c()).
uint32_t crc32c_portable(const void *data, size_t len, uint32_t seed = 0);

/// True when crc32c() runs the SSE4.2 kernel on this CPU.
bool crc32c_hw_active();

} // namespace detail

} // namespace raizn
