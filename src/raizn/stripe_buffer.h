/**
 * @file
 * Stripe buffers and parity math (paper §5.1). A stripe buffer caches
 * the data of one in-flight stripe so parity (full or partial) can be
 * computed without disk reads. Each open logical zone owns a fixed set
 * of buffers (8 by default), reused round-robin by stripe number.
 *
 * Buffers also operate in "shadow" mode when the underlying devices run
 * timing-only (DataMode::kNone): fill accounting is tracked, parity
 * buffers are produced zero-filled, and no bytes are copied.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.h"
#include "common/xor.h"

namespace raizn {

/**
 * Affected parity byte range [lo, hi) for a write covering stripe
 * offsets [s, e) (in sectors, within one stripe of D stripe units of
 * `su` sectors each). Single-SU writes touch only their intra-SU
 * slice; multi-SU writes touch the whole unit width.
 */
void parity_byte_range(uint64_t s, uint64_t e, uint32_t su_sectors,
                       uint64_t *lo, uint64_t *hi);

class StripeBuffer
{
  public:
    StripeBuffer(uint32_t data_units, uint32_t su_sectors, bool shadow);

    /// Rebinds the buffer to a new stripe, clearing contents.
    void assign(uint64_t stripe_no);

    uint64_t stripe_no() const { return stripe_no_; }
    bool bound() const { return stripe_no_ != UINT64_MAX; }

    /// Copies `data` into the stripe at sector offset `off` (within the
    /// stripe). Writes are sequential, so fills extend the prefix.
    void fill(uint64_t off, const uint8_t *data, uint64_t nsectors);

    /// Sectors filled from the start of the stripe.
    uint64_t filled() const { return filled_; }
    bool complete() const { return filled_ == stripe_sectors_; }

    /// Full parity of the complete stripe: XOR of all D stripe units.
    std::vector<uint8_t> full_parity() const;

    /**
     * Parity delta contributed by the data at stripe offsets [s, e):
     * the bytes a partial-parity log entry must record. Returned buffer
     * covers sectors [lo_sector, hi_sector) of the parity unit, as
     * given by parity_byte_range rounded outward to sectors.
     */
    std::vector<uint8_t> parity_delta(uint64_t s, uint64_t e,
                                      uint64_t *lo_sector,
                                      uint64_t *hi_sector) const;

    /**
     * Cumulative partial parity of the filled prefix: XOR of all data
     * present so far, zero-extended. Used by the metadata GC checkpoint
     * and by degraded-mount stripe reconstruction.
     */
    std::vector<uint8_t> prefix_parity() const;

    /// Raw access to a stripe-unit's cached data (read-from-buffer path).
    const uint8_t *unit_data(uint32_t k) const;

    uint64_t stripe_sectors() const { return stripe_sectors_; }
    uint32_t su_sectors() const { return su_sectors_; }
    size_t memory_bytes() const { return data_.size(); }

    /// Overwrites buffer contents directly (degraded-mount rebuild).
    void restore(uint64_t stripe_no, std::vector<uint8_t> bytes,
                 uint64_t filled_sectors);
    const std::vector<uint8_t> &bytes() const { return data_; }

  private:
    uint32_t data_units_;
    uint32_t su_sectors_;
    uint64_t stripe_sectors_;
    bool shadow_;
    uint64_t stripe_no_ = UINT64_MAX;
    uint64_t filled_ = 0;
    std::vector<uint8_t> data_; ///< D * su sectors (empty in shadow mode)
};

} // namespace raizn
