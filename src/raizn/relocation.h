/**
 * @file
 * Relocated stripe units (paper §5.2). When a partial stripe write
 * leaves unrecoverable, non-overwritable sectors on some device ("the
 * stripe hole" of Fig. 1), RAIZN hides them from the user by rolling
 * back the logical write pointer and redirecting future writes that
 * conflict with the burned physical range into the device's metadata
 * zone. The modified LBA→PBA mapping lives in a hashmap checked on
 * reads of flagged zones; entries are also cached in memory.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/units.h"

namespace raizn {

/// One relocated logical range: [lba, lba+nsectors) now lives at
/// `md_pba` on device `dev` (inside a metadata zone).
struct Relocation {
    uint64_t lba;
    uint32_t nsectors;
    uint32_t dev;
    uint64_t md_pba;
    std::vector<uint8_t> cached; ///< in-memory copy (may be empty)
};

class RelocationMap
{
  public:
    void clear() { map_.clear(); }

    /// Inserts or replaces the relocation for `rel.lba`.
    void insert(Relocation rel);

    /// Drops all relocations within logical zone [zone_start, zone_end)
    /// (called when the zone is reset).
    void drop_zone(uint64_t zone_start, uint64_t zone_end);

    /**
     * Finds the relocation covering logical sector `lba`, or nullptr.
     * A lookup hit means the read path must fetch from the metadata
     * zone (or the in-memory cache) instead of the arithmetic PBA.
     */
    const Relocation *find(uint64_t lba) const;

    /// Points the relocation starting at `lba` on device `dev` at
    /// `md_pba`; a no-op if it was dropped or replaced since.
    void set_md_pba(uint64_t lba, uint32_t dev, uint64_t md_pba);

    /// Number of relocated ranges held for device `dev`.
    size_t count_for_dev(uint32_t dev) const;
    size_t size() const { return map_.size(); }
    bool empty() const { return map_.empty(); }

    /// All relocations, ordered by logical LBA.
    std::vector<const Relocation *> all() const;

  private:
    /// Keyed by start LBA; ranges never overlap.
    std::map<uint64_t, Relocation> map_;
};

/**
 * Per-(device, logical zone) record of "burned" physical sectors: PBAs
 * beyond the rolled-back logical fill that already contain stale data
 * and cannot be rewritten until the zone resets. Writes whose
 * arithmetic PBA falls below `burned_end` must be relocated.
 */
class BurnedRanges
{
  public:
    void
    set(uint32_t dev, uint32_t zone, uint64_t expected_pba,
        uint64_t burned_end)
    {
        if (burned_end > expected_pba)
            map_[key(dev, zone)] = {expected_pba, burned_end};
    }

    /// End of the burned PBA range for (dev, zone), or 0 if none.
    uint64_t
    burned_end(uint32_t dev, uint32_t zone) const
    {
        auto it = map_.find(key(dev, zone));
        return it == map_.end() ? 0 : it->second.second;
    }

    void
    clear_zone(uint32_t num_devices, uint32_t zone)
    {
        for (uint32_t d = 0; d < num_devices; ++d)
            map_.erase(key(d, zone));
    }

    void
    clear_dev_zone(uint32_t dev, uint32_t zone)
    {
        map_.erase(key(dev, zone));
    }

    bool empty() const { return map_.empty(); }

  private:
    static uint64_t
    key(uint32_t dev, uint32_t zone)
    {
        return (static_cast<uint64_t>(dev) << 32) | zone;
    }

    /// (expected_pba, burned_end) per key.
    std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> map_;
};

} // namespace raizn
