/**
 * @file
 * Metadata zone manager (paper §4.3). Each device reserves >= 3
 * physical zones for metadata: one bound to the general log role
 * (superblock, generation counters, reset logs, relocated stripe
 * units), one to the partial-parity log role (isolated because parity
 * logs are written on every non-stripe-aligned write), and the rest as
 * swap zones for metadata garbage collection.
 *
 * All metadata is written with zone appends. When an active log zone
 * fills, the manager designates a swap zone as the new log target,
 * writes a role record with a higher epoch, checkpoints the currently
 * valid in-memory metadata (entries flagged as checkpointed), and
 * resets the old zone back into the swap pool (Fig. 4).
 *
 * An append whose role zone is full while the swap pool is empty (the
 * only swap zone is still being recycled by the other role's GC, or is
 * lent out by borrow_swap) is parked in a per-device FIFO. Parked
 * appends are placed front-first whenever a zone returns to the pool;
 * an append to a role that already has a parked entry is parked behind
 * it, so each log keeps its append order.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "fault/retry.h"
#include "raizn/layout.h"
#include "raizn/metadata.h"
#include "zns/block_device.h"

namespace raizn {

class EventLoop;

/// One metadata entry ready to append.
struct MdAppend {
    MdHeader header;
    std::vector<uint8_t> inline_data;
    std::vector<uint8_t> payload;
};

using StatusCb = std::function<void(Status)>;
/// Receives the device LBA of an entry's header sector once the entry
/// has its slot in the log.
using PlacedCb = std::function<void(uint64_t pba)>;

class MdManager
{
  public:
    /// Returns the checkpoint image of all currently valid in-memory
    /// metadata for (dev, role); invoked during metadata GC.
    using SnapshotProvider =
        std::function<std::vector<MdAppend>(uint32_t dev, MdZoneRole role)>;

    MdManager(EventLoop *loop, const Layout *layout,
              std::vector<BlockDevice *> devs);

    void set_snapshot_provider(SnapshotProvider provider)
    {
        snapshot_ = std::move(provider);
    }

    /// Routes metadata appends through the volume's retry layer so
    /// transient device errors are absorbed like any other sub-IO.
    /// Pass nullptr to submit directly. Non-owning; the caller keeps
    /// the retrier alive for the manager's lifetime.
    void set_retrier(IoRetrier *retrier) { retrier_ = retrier; }

    /// mkfs path: resets all metadata zones and binds initial roles.
    Status format();

    /// Spare promotion: swaps the device pointer for slot `dev` (the
    /// manager keeps its own device table). The caller formats the
    /// replacement's metadata zones separately via format_device().
    void replace_device(uint32_t dev, BlockDevice *replacement)
    {
        devs_[dev] = replacement;
    }

    /// Re-initializes one (replaced) device's metadata zones.
    Status format_device(uint32_t dev);

    /**
     * Appends one metadata entry to the `role` log of device `dev`.
     * `durable` forces FUA so the entry survives power loss at
     * completion (zone reset logs, rebuild WAL). Triggers metadata GC
     * transparently when the active zone is out of space, and waits
     * (parks) when no swap zone is free. `placed`, if set, is called
     * once with the header sector's device LBA when the entry gets its
     * slot: before append() returns, or later if the append was parked.
     * It is not called for a device whose metadata is moot (failed or
     * unformatted).
     */
    void append(uint32_t dev, MdZoneRole role, MdAppend entry,
                bool durable, StatusCb cb, PlacedCb placed = nullptr);

    /// Per-device replay log recovered by scan().
    struct DeviceLog {
        bool alive = false;
        /// Entries in replay order (older role epoch first, then append
        /// order). Role records are filtered out.
        std::vector<MdEntry> entries;
    };

    /**
     * Mount path: reads every metadata zone on every live device,
     * restores role bindings and append positions, and returns the
     * replayable entries per device.
     */
    Result<std::vector<DeviceLog>> scan();

    /// Device LBA of the active (dev, role) zone's write pointer. The
    /// next append lands there only if it fits and nothing is parked;
    /// use append()'s `placed` callback for where an entry landed.
    uint64_t active_zone_wp(uint32_t dev, MdZoneRole role) const;

    /**
     * Lends an empty swap metadata zone (its index) to the caller for
     * a physical-zone rebuild; return it with return_swap once reset.
     * A log that fills meanwhile parks its appends until the return.
     */
    Result<uint32_t> borrow_swap(uint32_t dev);
    void return_swap(uint32_t dev, uint32_t idx);

    uint64_t gc_runs() const { return gc_runs_; }
    /// Appends waiting for a swap zone on `dev`.
    size_t parked(uint32_t dev) const
    {
        return dev_state_[dev].parked.size();
    }

    /**
     * Byte-provenance of one metadata append, from its log role and
     * entry type: partial parity → pp_log, relocated stripe units →
     * relocation, rebuild WAL/checkpoints → rebuild, everything else
     * (superblock, generation counters, reset WAL, role records) →
     * wal_md. Central so every append site agrees on the taxonomy.
     */
    static obs::Cause cause_of(MdZoneRole role, MdType type);
    /// Sectors of metadata appended since construction (per device).
    uint64_t md_sectors_written(uint32_t dev) const
    {
        return dev_state_[dev].sectors_written;
    }

    /// Frees in-memory space accounting after host data no longer
    /// references the zone (entries themselves are reclaimed by GC).
    const Layout &layout() const { return *layout_; }

  private:
    static constexpr uint32_t kNumRoles = 2; // general, parity log

    /// An encoded append, waiting in DevState::parked or being placed.
    struct Pending {
        MdZoneRole role;
        std::vector<uint8_t> bytes;
        bool durable;
        obs::Cause cause;
        StatusCb cb;
        PlacedCb placed;
    };

    struct DevState {
        /// md-zone index (0-based) bound to each role; -1 = unbound.
        int role_zone[kNumRoles] = {-1, -1};
        uint64_t next_epoch = 1;
        std::vector<uint64_t> wp; ///< tracked sectors used per md zone
        std::vector<uint32_t> swap; ///< free md-zone indices
        uint64_t sectors_written = 0;
        /// Appends waiting for a swap zone, in arrival order.
        std::deque<Pending> parked;
    };

    uint64_t md_zone_cap() const { return layout_->phys_zone_cap(); }
    uint64_t md_zone_pba(uint32_t idx) const
    {
        return layout_->md_zone_start(idx);
    }

    void do_append(uint32_t dev, uint32_t zone_idx,
                   std::vector<uint8_t> bytes, bool durable,
                   obs::Cause cause, StatusCb cb);
    /// Switches (dev, role) to a fresh swap zone and checkpoints.
    void gc_switch(uint32_t dev, MdZoneRole role, StatusCb done);
    /// Appends `p` to its role's log, switching to a swap zone when the
    /// active one is full. Returns false, leaving `p` untouched, when
    /// the zone is full and the swap pool is empty.
    bool try_place(uint32_t dev, Pending &p);
    /// Places parked appends front-first until one still cannot be.
    void drain_parked(uint32_t dev);
    /// Completes every parked append with ok (metadata on a failed or
    /// replaced device is moot).
    void flush_parked(uint32_t dev);
    std::vector<uint8_t> encode(const MdAppend &entry) const;

    /// Submits via the retrier when one is attached.
    void md_submit(uint32_t dev, IoRequest req, IoCallback cb);

    EventLoop *loop_;
    const Layout *layout_;
    std::vector<BlockDevice *> devs_;
    std::vector<DevState> dev_state_;
    SnapshotProvider snapshot_;
    IoRetrier *retrier_ = nullptr;
    uint64_t gc_runs_ = 0;
};

} // namespace raizn
