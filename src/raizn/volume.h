/**
 * @file
 * RaiznVolume: the paper's contribution. A logical host-managed zoned
 * device striped with distributed parity (RAID-5-like) across ZNS
 * devices, tolerating one device failure and power loss at any point.
 *
 * Public surface mirrors the kernel-block-layer view of a zoned device:
 * read / sequential write (with FUA and PREFLUSH) / flush / zone reset /
 * zone finish / report zones — plus management entry points for device
 * failure and rebuild.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "array/zoned_array.h"
#include "fault/health.h"
#include "fault/retry.h"
#include "raizn/config.h"
#include "raizn/gen_counter.h"
#include "raizn/layout.h"
#include "raizn/md_manager.h"
#include "raizn/persist_bitmap.h"
#include "raizn/relocation.h"
#include "raizn/stripe_buffer.h"
#include "raizn/superblock.h"
#include "raizn/throttle.h"
#include "zns/block_device.h"

namespace raizn {

/// Counters exposed for tests, benches, and Table 1 accounting.
struct VolumeStats {
    uint64_t logical_reads = 0;
    uint64_t logical_writes = 0;
    uint64_t sectors_read = 0;
    uint64_t sectors_written = 0;
    uint64_t full_parity_writes = 0;
    uint64_t partial_parity_logs = 0;
    uint64_t partial_parity_sectors = 0;
    uint64_t relocated_writes = 0;
    uint64_t degraded_reads = 0;
    uint64_t reconstructed_sectors = 0;
    uint64_t zone_resets = 0;
    uint64_t flushes = 0;
    uint64_t fua_writes = 0;
    uint64_t fua_dependency_flushes = 0;
    uint64_t holes_repaired_in_place = 0;
    uint64_t holes_remapped = 0;
    uint64_t partial_zone_resets_completed = 0;
    uint64_t stripe_buffer_recycles = 0;
    uint64_t zones_rebuilt = 0;
    uint64_t stripes_rebuilt = 0;
    uint64_t phys_zone_rebuilds = 0;
    // Error-path counters (transient-fault resilience layer).
    uint64_t io_retries = 0; ///< device commands retried after backoff
    uint64_t io_timeouts = 0; ///< watchdog deadline expirations
    uint64_t dev_errors = 0; ///< persistent (post-retry) device errors
    uint64_t crc_mismatches = 0; ///< reads failing checksum validation
    uint64_t read_repairs = 0; ///< units/parity repaired from redundancy
    uint64_t scrubbed_stripes = 0; ///< stripes verified by the scrubber
    // Failure-lifecycle counters (automatic failover + rebuild).
    uint64_t health_suspects = 0; ///< suspect edges from the monitor
    uint64_t fail_slow_detected = 0; ///< advisory fail-slow verdicts
    uint64_t auto_failovers = 0; ///< health-driven failovers started
    uint64_t spares_promoted = 0; ///< hot spares swapped into a slot
    uint64_t rebuild_checkpoints = 0; ///< durable progress records
    uint64_t rebuild_zones_resumed = 0; ///< zones skipped after a crash
    uint64_t rebuild_throttle_stalls = 0; ///< rebuild IOs delayed

    /**
     * Enumerates every counter as (name, field). Single source of
     * truth for the names: dump() and the metrics-registry linkage
     * (obs::link_stats) both iterate this list.
     */
    template <typename Fn>
    void
    for_each_field(Fn fn) const
    {
        fn("logical_reads", logical_reads);
        fn("logical_writes", logical_writes);
        fn("sectors_read", sectors_read);
        fn("sectors_written", sectors_written);
        fn("full_parity_writes", full_parity_writes);
        fn("partial_parity_logs", partial_parity_logs);
        fn("partial_parity_sectors", partial_parity_sectors);
        fn("relocated_writes", relocated_writes);
        fn("degraded_reads", degraded_reads);
        fn("reconstructed_sectors", reconstructed_sectors);
        fn("zone_resets", zone_resets);
        fn("flushes", flushes);
        fn("fua_writes", fua_writes);
        fn("fua_dependency_flushes", fua_dependency_flushes);
        fn("holes_repaired_in_place", holes_repaired_in_place);
        fn("holes_remapped", holes_remapped);
        fn("partial_zone_resets_completed", partial_zone_resets_completed);
        fn("stripe_buffer_recycles", stripe_buffer_recycles);
        fn("zones_rebuilt", zones_rebuilt);
        fn("stripes_rebuilt", stripes_rebuilt);
        fn("phys_zone_rebuilds", phys_zone_rebuilds);
        fn("io_retries", io_retries);
        fn("io_timeouts", io_timeouts);
        fn("dev_errors", dev_errors);
        fn("crc_mismatches", crc_mismatches);
        fn("read_repairs", read_repairs);
        fn("scrubbed_stripes", scrubbed_stripes);
        fn("health_suspects", health_suspects);
        fn("fail_slow_detected", fail_slow_detected);
        fn("auto_failovers", auto_failovers);
        fn("spares_promoted", spares_promoted);
        fn("rebuild_checkpoints", rebuild_checkpoints);
        fn("rebuild_zones_resumed", rebuild_zones_resumed);
        fn("rebuild_throttle_stalls", rebuild_throttle_stalls);
    }

    /// One-line "key=value" rendering of every counter, for benches.
    std::string dump() const;
};

class RaiznVolume : public ZonedArray
{
  public:
    /**
     * mkfs: formats `devs` (resets metadata zones, writes role records
     * and superblocks) and returns a mounted volume. All devices must
     * share a zoned geometry compatible with `cfg`.
     */
    static Result<std::unique_ptr<RaiznVolume>>
    create(EventLoop *loop, std::vector<BlockDevice *> devs,
           const RaiznConfig &cfg);

    /**
     * Mounts an existing array: replays metadata logs, reconciles
     * write pointers, repairs stripe holes, completes interrupted zone
     * resets, and reconstructs in-memory state (§4.3, §5). Tolerates
     * one failed device (mounts degraded).
     */
    static Result<std::unique_ptr<RaiznVolume>>
    mount(EventLoop *loop, std::vector<BlockDevice *> devs);

    ~RaiznVolume() override;

    // ---- Geometry --------------------------------------------------
    const Layout &layout() const { return *layout_; }
    RaidMode mode() const override { return RaidMode::kRaizn; }
    uint32_t fault_tolerance() const override { return 1; }
    uint32_t num_zones() const override
    {
        return layout_->num_logical_zones();
    }
    uint64_t zone_capacity() const override
    {
        return layout_->logical_zone_cap();
    }
    uint64_t capacity() const override
    {
        return layout_->logical_capacity();
    }
    /// Open-zone budget exposed to the host: the device limit minus the
    /// metadata zones RAIZN itself keeps open.
    uint32_t max_open_zones() const { return max_open_zones_; }

    /// Report Zones for the logical device.
    Result<ZoneInfo> zone_info(uint32_t zone) const override;

    // ---- Data path -------------------------------------------------
    void read(uint64_t lba, uint32_t nsectors, IoCallback cb) override;

    /// Sequential zone write; `data` empty = timing-only.
    void write(uint64_t lba, std::vector<uint8_t> data, WriteFlags flags,
               IoCallback cb) override;
    void
    write_len(uint64_t lba, uint32_t nsectors, WriteFlags flags,
              IoCallback cb) override
    {
        write_internal(lba, {}, nsectors, flags, std::move(cb));
    }

    void flush(IoCallback cb) override;
    void reset_zone(uint32_t zone, IoCallback cb) override;
    void finish_zone(uint32_t zone, IoCallback cb) override;

    // ---- Failure lifecycle -----------------------------------------
    /**
     * Policy for the automatic failure lifecycle: when the health
     * monitor fails a device and a hot spare is attached, the volume
     * promotes the spare and rebuilds it in the background with no
     * caller intervention (healthy -> suspect -> failed -> rebuilding
     * -> healthy). Throttle settings bound the rebuild's impact on
     * degraded foreground service.
     */
    struct LifecycleConfig {
        bool auto_rebuild = true; ///< promote + rebuild on failure
        RebuildThrottleConfig throttle;
        /// Fired when an automatic rebuild finishes (or fails).
        std::function<void(uint32_t dev, Status s)> on_rebuild_done;
    };
    void set_lifecycle(LifecycleConfig lc) { lifecycle_ = std::move(lc); }
    const LifecycleConfig &lifecycle() const { return lifecycle_; }

    /**
     * True when mount found a durable rebuild checkpoint with state
     * in-progress: the crash interrupted a rebuild and the caller (or
     * an auto-rebuild lifecycle) should call resume_rebuild().
     */
    bool has_pending_rebuild() const { return pending_rebuild_dev_ >= 0; }
    int pending_rebuild_device() const { return pending_rebuild_dev_; }

    /**
     * Resumes a checkpointed rebuild after a crash: zones the
     * checkpoint marks complete are verified against the replacement
     * device's write pointers and skipped; everything else is rebuilt.
     */
    void resume_rebuild(ProgressCb progress, StatusCb done);

    /// Live rebuild rate view (null when no throttled rebuild runs).
    const RebuildThrottle *rebuild_throttle() const
    {
        return throttle_.get();
    }

    // ---- Scrubbing -------------------------------------------------
    /**
     * Synchronously scrubs every eligible stripe (complete, at its
     * home placement, all devices available): reads data + parity,
     * verifies the parity equation and per-sector checksums, and
     * read-repairs corrupted units from redundancy (repairs land in
     * the metadata zones like any relocated stripe unit). Drives the
     * event loop until the pass completes.
     */
    Status scrub_all(ScrubReport *report = nullptr) override;

    /**
     * Starts the background scrubber: one stripe every `interval`
     * ticks, `on_pass` fired after each complete pass. Opt-in — never
     * started automatically (benches drain the loop synchronously).
     */
    void start_scrubber(Tick interval,
                        std::function<void(const ScrubReport &)> on_pass =
                            nullptr);
    void stop_scrubber();
    bool scrubber_running() const { return scrub_running_; }

    /// Marks a device failed: reads reconstruct, writes omit it.
    void mark_device_failed(uint32_t dev) override;
    /// -1 when the array is healthy.
    int failed_device() const override { return failed_dev_; }
    bool read_only() const { return read_only_; }

    /**
     * Rebuilds a replaced device zone by zone, active zones first,
     * copying only LBA ranges that contain user data (§4.2). The
     * device must have been replaced (fresh) before calling. Writes
     * arriving during rebuild are served degraded for zones not yet
     * rebuilt.
     */
    void rebuild_device(uint32_t dev, ProgressCb progress,
                        StatusCb done) override;

    // ---- Observability ---------------------------------------------
    // attach_observability (inherited) links every VolumeStats counter
    // under "raizn.*", per-device DeviceStats + latency histograms
    // under "zns.dev<i>.*", and health counters under
    // "raizn.health.dev<i>.*". Trace spans: logical request on track 0,
    // metadata-manager appends on track 1, device commands on track
    // 2+i.

    // Point-in-time backlog views (timeline gauges).
    /// Stripe buffers currently held across open logical zones.
    size_t open_stripe_buffers() const;
    /// Partial-parity log records indexed for degraded reconstruction.
    size_t pp_backlog() const;
    /// Relocated data + parity extents currently tracked.
    size_t reloc_backlog() const;

    /**
     * Registers gauge-refresh probes on `tl`: stripe-buffer / pp-log /
     * relocation backlog occupancy and the open-zone count under
     * "raizn.gauge.*", plus a per-device zone-state census
     * ("zns.dev<i>.zones_{empty,open,closed,full}") for members that
     * are ZNS devices. Requires attach_observability(reg, ...) first
     * (the gauges live in that registry); call before tl->start().
     */
    void install_timeline(obs::Timeline *tl) override;

    // ---- Introspection ---------------------------------------------
    const VolumeStats &stats() const { return stats_; }
    const GenCounterTable &gen_counters() const { return gen_; }
    MdManager &md_manager() { return *md_; }

    /**
     * True when any sector of stripe `stripe` in logical zone `zone`
     * lives away from its home physical location (relocated data or
     * parity, or a burned range from hole rollback). Read-only; used by
     * the crash-point oracle to scope raw parity-XOR checks to stripes
     * stored at their home placement.
     */
    bool stripe_displaced(uint32_t zone, uint64_t stripe) const;

    /**
     * Deliberate bugs for oracle regression tests: each fault disables
     * one crash-consistency mechanism so tests can prove the checker
     * catches its absence. Never set outside tests.
     */
    enum class DebugFault {
        kNone,
        /// Skip the durable partial-parity log append (§5.1) while
        /// keeping the in-memory index — crashes while degraded lose
        /// the ability to reconstruct open stripes.
        kSkipPartialParityLog,
    };
    void set_debug_fault(DebugFault f) { debug_fault_ = f; }

    /// Memory footprint per metadata type (Table 1 reproduction).
    struct MemoryFootprint {
        size_t gen_counters;
        size_t superblock;
        size_t stripe_buffers;
        size_t persistence_bitmaps;
        size_t zone_descriptors;
        size_t relocations;
    };
    MemoryFootprint memory_footprint() const;

  private:
    struct LZone; ///< logical zone descriptor (name avoids ZoneState enum)
    struct WriteCtx;

    RaiznVolume(EventLoop *loop, std::vector<BlockDevice *> devs,
                const RaiznConfig &cfg);

    // volume.cc
    void write_internal(uint64_t lba, std::vector<uint8_t> data,
                        uint32_t nsectors, WriteFlags flags, IoCallback cb);
    void process_write(uint64_t lba, std::vector<uint8_t> data,
                       uint32_t nsectors, WriteFlags flags, IoCallback cb);
    void submit_data_subio(uint32_t dev, uint32_t zone, uint64_t pba,
                           std::vector<uint8_t> data, uint32_t nsectors,
                           uint64_t lba, bool fua,
                           std::shared_ptr<WriteCtx> ctx);
    void submit_parity_subio(uint32_t zone, uint64_t stripe,
                             std::vector<uint8_t> parity, bool fua,
                             std::shared_ptr<WriteCtx> ctx);
    void log_partial_parity(uint32_t zone, uint64_t stripe,
                            uint64_t start_lba, uint64_t end_lba,
                            std::vector<uint8_t> delta, uint64_t lo_sector,
                            std::shared_ptr<WriteCtx> ctx);
    void relocate_write(uint32_t dev, uint32_t zone, uint64_t lba,
                        std::vector<uint8_t> data, uint32_t nsectors,
                        std::shared_ptr<WriteCtx> ctx);
    /// `placed` callback for a relocated stripe unit's metadata
    /// append: points the data relocation at `lba` (or, with `parity`,
    /// the parity relocation keyed `lba`) on `dev` at the entry's
    /// payload, one sector past its header.
    PlacedCb reloc_placed(uint64_t lba, uint32_t dev, bool parity);
    void subio_done(std::shared_ptr<WriteCtx> ctx, Status status);
    void finish_write(std::shared_ptr<WriteCtx> ctx);
    void start_fua_flush_phase(std::shared_ptr<WriteCtx> ctx);
    StripeBuffer *get_buffer(uint32_t zone, uint64_t stripe);
    void open_zone_state(uint32_t zone);
    void drain_waiters(uint32_t zone);
    void persist_gen_block(uint32_t block);

    // read path (volume.cc); `treq` is the trace correlation id
    // (0 when tracing is detached).
    void read_fast(uint64_t lba, uint32_t nsectors, uint64_t treq,
                   IoCallback cb);
    void read_slow(uint64_t lba, uint32_t nsectors, uint64_t treq,
                   IoCallback cb);
    void read_extent_degraded(const PhysExtent &ext,
                              std::function<void(Status,
                                                 std::vector<uint8_t>)> cb);
    void reconstruct_stripe_unit(
        uint32_t zone, uint64_t stripe, int pos, uint64_t lo, uint64_t hi,
        std::function<void(Status, std::vector<uint8_t>)> cb);

    // recovery.cc
    struct RecoveryCtx;
    Status run_recovery();
    Status replay_md_logs(RecoveryCtx &rc,
                          const std::vector<MdManager::DeviceLog> &logs);
    Status recover_logical_zone(uint32_t zone, RecoveryCtx &rc);
    Status complete_partial_reset(uint32_t zone);
    Status repair_or_remap(uint32_t zone, std::vector<uint64_t> written);
    Status rebuild_tail_buffer(uint32_t zone);
    Status rebuild_physical_zone(uint32_t dev, uint32_t zone,
                                 const ZoneRebuildRecord *resume);
    Status persist_superblocks();

    // rebuild.cc
    Status rebuild_zone_sync(uint32_t dev, uint32_t zone);
    Status rewrite_replicated_md(uint32_t dev);
    void rebuild_device_internal(uint32_t dev, bool resume,
                                 ProgressCb progress, StatusCb done);
    /// Durably logs rebuild progress to every surviving device. `wait`
    /// drives the loop until the record is durable (rebuild start: the
    /// record must exist before the first write touches the target).
    void persist_rebuild_checkpoint(uint32_t dev, uint32_t state,
                                    uint32_t cur_zone, bool wait);
    /// Current checkpoint image (metadata-GC snapshot + persist).
    std::vector<uint8_t> encode_current_rebuild_checkpoint(
        uint32_t dev, uint32_t state, uint32_t cur_zone) const;
    /// Re-logs the folded tail-stripe partial parity of `zone` to the
    /// rebuild target when the target is its parity holder.
    void relog_tail_pp(uint32_t dev, uint32_t zone);
    /// Expected physical fill (sectors) of `dev`'s copy of `zone` for
    /// the current logical fill — the resume-verification yardstick.
    uint64_t expected_phys_fill(uint32_t dev, uint32_t zone) const;
    /// Promotes the attached spare into slot `dev` (device table, md
    /// manager, health history). The old pointer is abandoned.
    void promote_spare(uint32_t dev);
    /// Health-monitor escalation edges land here.
    void on_health_event(uint32_t dev, HealthEvent ev) override;
    void maybe_start_auto_rebuild(uint32_t dev);

    // scrub.cc
    void scrub_stripe(uint32_t zone, uint64_t stripe, ScrubReport *rep,
                      std::function<void()> done);
    void scrub_repair_unit(uint32_t zone, uint64_t stripe, uint32_t k,
                           std::vector<uint8_t> data);
    void scrub_repair_parity(uint32_t zone, uint64_t stripe,
                             std::vector<uint8_t> parity);
    std::vector<std::pair<uint32_t, uint64_t>> scrub_candidates() const;
    void arm_scrubber();
    void scrubber_step();

    // shared helpers
    /// True when (dev) cannot serve IO for `zone`: physically failed,
    /// or marked failed and the zone has not been rebuilt yet.
    bool dev_unavailable(uint32_t dev, uint32_t zone) const;
    /// True when `dev`'s data zones must be treated as absent during
    /// recovery: physically failed, or it is the rebuild target (a
    /// promoted spare is live but holds no trusted data yet).
    bool dev_down(uint32_t dev) const
    {
        return devs_[dev]->failed() || static_cast<int>(dev) == failed_dev_;
    }
    MdAppend make_pp_append(uint32_t zone, uint64_t stripe,
                            uint64_t start_lba, uint64_t end_lba,
                            uint64_t lo_sector,
                            std::vector<uint8_t> delta) const;
    std::vector<MdAppend> snapshot_for_gc(uint32_t dev, MdZoneRole role);
    bool data_mode_store() const { return store_data_; }
    IoResult dev_sync(uint32_t dev, IoRequest req);
    // dev_submit / escalate_dev_error are inherited from ZonedArray:
    // the data path routes through the retrier/watchdog; recovery,
    // rebuild, and metadata appends keep their direct paths.
    /// Records per-sector CRCs for a logical write (`off` is the zone-
    /// relative sector offset); empty data invalidates the range.
    void note_written_crcs(uint32_t zone, uint64_t off,
                           const std::vector<uint8_t> &data,
                           uint32_t nsectors);
    /// Verifies `nsectors` of payload read at logical `lba` against
    /// the CRC catalog; sectors without a recorded CRC pass.
    bool crc_range_ok(uint64_t lba, const uint8_t *bytes,
                      uint32_t nsectors) const;

    // ZonedArray hooks.
    std::string metric_prefix() const override { return "raizn"; }
    /// Historical namespace: per-device metrics predate the interface.
    std::string dev_metric_prefix() const override { return "zns"; }
    void link_stats_hook(obs::MetricsRegistry &reg) override;
    void on_resilience_changed() override;

    RaiznConfig cfg_;
    std::unique_ptr<Layout> layout_;
    std::unique_ptr<MdManager> md_;
    Superblock sb_;
    GenCounterTable gen_;
    uint64_t gen_update_seq_ = 1;

    std::vector<LZone> zones_;
    RelocationMap reloc_;
    BurnedRanges burned_;
    /// Parity stripe units displaced into metadata zones, keyed by
    /// (zone << 32 | stripe).
    std::unordered_map<uint64_t, Relocation> parity_reloc_;

    /// In-memory index of partial parity log entries per (zone,stripe):
    /// needed for degraded reconstruction of incomplete stripes.
    struct PpRecord {
        uint64_t start_lba;
        uint64_t end_lba;
        uint64_t lo_sector;
        std::vector<uint8_t> delta; ///< cached (empty in timing mode)
    };
    std::map<uint64_t, std::vector<PpRecord>> pp_index_;

    VolumeStats stats_;
    uint32_t max_open_zones_ = 0;
    uint32_t open_zones_ = 0;
    int failed_dev_ = -1;
    bool read_only_ = false;
    bool store_data_ = true;
    DebugFault debug_fault_ = DebugFault::kNone;
    bool rebuilding_ = false;
    std::vector<bool> zone_rebuilt_; ///< during rebuild_device

    // Failure lifecycle. (The spare and the resilience/observability
    // layers live in ZonedArray.)
    LifecycleConfig lifecycle_;
    std::unique_ptr<RebuildThrottle> throttle_;
    int pending_rebuild_dev_ = -1; ///< from a mount-time checkpoint
    std::vector<bool> ckpt_rebuilt_; ///< checkpointed zone bitmap
    double fg_write_ewma_ns_ = 0.0; ///< foreground write latency EWMA

    // Background scrubber state.
    bool scrub_running_ = false;
    Tick scrub_interval_ = 0;
    std::function<void(const ScrubReport &)> scrub_cb_;
    ScrubReport scrub_pass_;
    std::vector<std::pair<uint32_t, uint64_t>> scrub_queue_;
    size_t scrub_cursor_ = 0;
};

} // namespace raizn
