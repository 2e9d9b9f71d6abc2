/**
 * @file
 * Mount-time recovery (paper §4.3 "zone descriptors", §5.1, §5.2):
 * metadata log replay with generation-counter validation, write-pointer
 * reconciliation, stripe-hole detection and repair, partial-zone-reset
 * completion, stripe-unit remapping, and relocation-threshold physical
 * zone rebuilds.
 */
#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <optional>
#include <set>

#include "common/logging.h"
#include "raizn/volume_impl.h"
#include "sim/event_loop.h"

namespace raizn {

namespace {

uint64_t
zs_key(uint32_t zone, uint64_t stripe)
{
    return (static_cast<uint64_t>(zone) << 32) | stripe;
}

} // namespace

/// Transient state shared by the recovery passes.
struct RaiznVolume::RecoveryCtx {
    /// Zone reset intents whose generation is still current.
    std::set<uint32_t> pending_resets;
    /// Physical zone rebuild WALs to resume (phase < 2).
    std::vector<ZoneRebuildRecord> pending_rebuilds;

    struct RelocCandidate {
        MdEntry entry;
        uint32_t dev;
    };
    std::vector<RelocCandidate> relocs;

    struct PpCandidate {
        MdEntry entry;
        uint32_t dev;
    };
    std::vector<PpCandidate> pps;
};

Result<std::unique_ptr<RaiznVolume>>
RaiznVolume::mount(EventLoop *loop, std::vector<BlockDevice *> devs)
{
    if (devs.empty())
        return Status(StatusCode::kInvalidArgument, "no devices");

    // Locate the newest superblock: metadata zones are the trailing
    // physical zones, so scan backwards on any live device. Track which
    // devices carry one at all: an alive device with no superblock is a
    // factory-fresh replacement whose rebuild never got its first
    // checkpoint durable, and must be treated as the absent device.
    Superblock best;
    bool found = false;
    std::vector<bool> has_sb(devs.size(), false);
    for (size_t di = 0; di < devs.size(); ++di) {
        BlockDevice *dev = devs[di];
        if (dev->failed())
            continue;
        const DeviceGeometry &g = dev->geometry();
        if (!g.zoned)
            return Status(StatusCode::kInvalidArgument, "not a ZNS device");
        uint32_t lo = g.nzones > 8 ? g.nzones - 8 : 0;
        for (uint32_t z = g.nzones; z-- > lo;) {
            auto zi = dev->zone_info(z);
            if (!zi.is_ok() || zi.value().written() == 0)
                continue;
            IoRequest rd =
                IoRequest::read(zi.value().start,
                                static_cast<uint32_t>(
                                    zi.value().written()));
            rd.cause = obs::Cause::kWalMd;
            auto img = submit_sync(*loop, *dev, std::move(rd));
            if (!img.status.is_ok())
                continue;
            for (const MdEntry &e :
                 scan_md_zone(img.data, zi.value().start)) {
                if (e.header.type != MdType::kSuperblock)
                    continue;
                auto sb = Superblock::decode(e.inline_data);
                if (sb.is_ok()) {
                    has_sb[di] = true;
                    if (!found || sb.value().seq >= best.seq) {
                        best = sb.value();
                        found = true;
                    }
                }
            }
        }
    }
    if (!found)
        return Status(StatusCode::kNotFound, "no RAIZN superblock");
    if (best.num_devices != devs.size())
        return Status(StatusCode::kInvalidArgument,
                      "device count mismatch with superblock");

    RaiznConfig cfg = best.to_config();
    auto vol = std::unique_ptr<RaiznVolume>(
        new RaiznVolume(loop, std::move(devs), cfg));
    vol->sb_ = best;
    for (uint32_t d = 0; d < vol->devs_.size(); ++d) {
        if (vol->devs_[d]->failed())
            vol->failed_dev_ = static_cast<int>(d);
    }
    for (uint32_t d = 0; d < vol->devs_.size(); ++d) {
        if (has_sb[d] || vol->devs_[d]->failed())
            continue;
        if (vol->failed_dev_ >= 0 &&
            vol->failed_dev_ != static_cast<int>(d)) {
            return Status(StatusCode::kIoError,
                          strprintf("device %u has no superblock and "
                                    "device %d is failed: two devices "
                                    "down",
                                    d, vol->failed_dev_));
        }
        LOG_WARN("device %u carries no superblock: treating as an "
                 "unrebuilt replacement (degraded mount)",
                 d);
        vol->failed_dev_ = static_cast<int>(d);
    }
    Status st = vol->run_recovery();
    if (!st)
        return st;
    return vol;
}

Status
RaiznVolume::run_recovery()
{
    auto logs = md_->scan();
    if (!logs.is_ok())
        return logs.status();

    RecoveryCtx rc;
    const std::vector<MdManager::DeviceLog> &devlogs = logs.value();

    // Rebuild checkpoint: the newest record (by update sequence) tells
    // whether a whole-device rebuild was in flight at the crash. An
    // in-progress record re-marks the target as the array's absent
    // device — its data zones are partially reconstructed and must not
    // be trusted — and arms resume_rebuild() with the zone bitmap.
    {
        RebuildCheckpointRecord newest;
        uint64_t newest_seq = 0;
        bool have = false;
        for (const auto &devlog : devlogs) {
            for (const MdEntry &e : devlog.entries) {
                if (e.header.type != MdType::kRebuildCheckpoint)
                    continue;
                gen_update_seq_ =
                    std::max(gen_update_seq_, e.header.generation + 1);
                auto rec = decode_rebuild_checkpoint(e);
                if (!rec.is_ok())
                    continue;
                if (!have || e.header.generation >= newest_seq) {
                    newest = std::move(rec.value());
                    newest_seq = e.header.generation;
                    have = true;
                }
            }
        }
        if (have &&
            newest.state == RebuildCheckpointRecord::kInProgress &&
            newest.dev < devs_.size()) {
            if (devs_[newest.dev]->failed()) {
                // The target itself is gone again: plain degraded
                // mount; the checkpoint is moot.
            } else if (failed_dev_ >= 0 &&
                       failed_dev_ != static_cast<int>(newest.dev)) {
                LOG_ERROR("rebuild checkpoint for dev %u but dev %d is "
                          "failed: two devices down",
                          newest.dev, failed_dev_);
            } else {
                failed_dev_ = static_cast<int>(newest.dev);
                pending_rebuild_dev_ = failed_dev_;
                ckpt_rebuilt_ = newest.rebuilt;
                LOG_INFO("rebuild of dev %u interrupted "
                         "(%u zones checkpointed); resume available",
                         newest.dev, newest.zones_done);
            }
        }
    }

    // Pass 1: generation counters must be current before anything else
    // can be validated.
    for (const auto &devlog : devlogs) {
        for (const MdEntry &e : devlog.entries) {
            if (e.header.type == MdType::kGenCounters) {
                gen_.apply_entry(e);
                gen_update_seq_ =
                    std::max(gen_update_seq_, e.header.generation + 1);
            }
        }
    }

    // Zones with current-generation partial-parity records: when the
    // array is degraded, such a zone may hold FUA-acked content whose
    // only durable trace is the pp log (its data unit lives on the
    // failed device), so it is not actually empty.
    std::set<uint32_t> pp_backed;
    if (failed_dev_ >= 0) {
        for (const auto &devlog : devlogs) {
            for (const MdEntry &e : devlog.entries) {
                if (e.header.type != MdType::kPartialParity)
                    continue;
                uint32_t z = layout_->zone_of(e.header.start_lba);
                if (z < zones_.size() &&
                    e.header.generation == gen_.get(z)) {
                    pp_backed.insert(z);
                }
            }
        }
    }

    // Empty logical zones increment their generation on every mount,
    // invalidating any stale metadata for them (§4.3). pp-backed
    // degraded zones are exempt: the bump would invalidate the very
    // records that prove their content.
    std::set<uint32_t> touched_blocks;
    for (uint32_t z = 0; z < zones_.size(); ++z) {
        if (pp_backed.count(z))
            continue;
        bool empty = true;
        for (uint32_t d = 0; d < devs_.size(); ++d) {
            if (dev_down(d))
                continue;
            auto zi = devs_[d]->zone_info(z);
            if (!zi.is_ok())
                return zi.status();
            empty &= zi.value().written() == 0 &&
                zi.value().state == raizn::ZoneState::kEmpty;
        }
        if (empty) {
            gen_.increment(z);
            touched_blocks.insert(gen_.block_of(z));
        }
    }

    Status st = replay_md_logs(rc, devlogs);
    if (!st)
        return st;

    // Resume interrupted physical-zone rebuilds before zone recovery.
    for (const ZoneRebuildRecord &rec : rc.pending_rebuilds) {
        st = rebuild_physical_zone(rec.dev, rec.logical_zone, &rec);
        if (!st)
            return st;
    }

    for (uint32_t z = 0; z < zones_.size(); ++z) {
        st = recover_logical_zone(z, rc);
        if (!st)
            return st;
        touched_blocks.insert(gen_.block_of(z));
    }

    // Relocation-threshold maintenance: physical zones with too many
    // remapped stripe units are rebuilt at initialization (§5.2).
    for (uint32_t d = 0; d < devs_.size(); ++d) {
        if (dev_down(d))
            continue;
        std::map<uint32_t, uint32_t> per_zone;
        for (const Relocation *rel : reloc_.all()) {
            if (rel->dev == d)
                per_zone[layout_->zone_of(rel->lba)]++;
        }
        for (auto &[zone, count] : per_zone) {
            if (count > cfg_.relocation_threshold) {
                st = rebuild_physical_zone(d, zone, nullptr);
                if (!st)
                    return st;
            }
        }
    }

    // Persist the refreshed generation counters and superblock.
    for (uint32_t b : touched_blocks)
        persist_gen_block(b);
    st = persist_superblocks();
    if (!st)
        return st;
    loop_->run(); // drain outstanding metadata writes
    return Status::ok();
}

Status
RaiznVolume::replay_md_logs(RecoveryCtx &rc,
                            const std::vector<MdManager::DeviceLog> &logs)
{
    // Track phase-2 rebuild records so relocations folded into the
    // rebuilt zone are not resurrected.
    for (uint32_t d = 0; d < logs.size(); ++d) {
        const auto &devlog = logs[d];
        std::vector<RecoveryCtx::RelocCandidate> dev_relocs;
        for (const MdEntry &e : devlog.entries) {
            switch (e.header.type) {
              case MdType::kSuperblock:
              case MdType::kGenCounters:
              case MdType::kZoneRole:
              case MdType::kRebuildCheckpoint:
                break; // handled elsewhere
              case MdType::kZoneResetLog: {
                auto rec = decode_zone_reset(e);
                if (!rec.is_ok())
                    break;
                uint32_t z = rec.value().logical_zone;
                if (z < zones_.size() &&
                    e.header.generation == gen_.get(z)) {
                    rc.pending_resets.insert(z);
                }
                break;
              }
              case MdType::kPartialParity: {
                uint32_t z = layout_->zone_of(e.header.start_lba);
                if (z < zones_.size() &&
                    e.header.generation == gen_.get(z)) {
                    rc.pps.push_back({e, d});
                }
                break;
              }
              case MdType::kRelocatedSu: {
                bool parity = e.inline_data.size() > 4 &&
                    e.inline_data[4] == 1;
                uint32_t z = parity
                    ? static_cast<uint32_t>(e.header.start_lba >> 32)
                    : layout_->zone_of(e.header.start_lba);
                if (z < zones_.size() &&
                    e.header.generation == gen_.get(z)) {
                    dev_relocs.push_back({e, d});
                }
                break;
              }
              case MdType::kZoneRebuildLog: {
                auto rec = decode_zone_rebuild(e);
                if (!rec.is_ok())
                    break;
                if (rec.value().phase >= 2) {
                    // Drop the relocations folded by this rebuild.
                    uint32_t z = rec.value().logical_zone;
                    std::erase_if(dev_relocs, [&](const auto &cand) {
                        bool parity = cand.entry.inline_data.size() > 4 &&
                            cand.entry.inline_data[4] == 1;
                        uint32_t cz = parity
                            ? static_cast<uint32_t>(
                                  cand.entry.header.start_lba >> 32)
                            : layout_->zone_of(
                                  cand.entry.header.start_lba);
                        return cz == z;
                    });
                } else {
                    rc.pending_rebuilds.push_back(rec.value());
                }
                break;
              }
            }
        }
        for (auto &cand : dev_relocs)
            rc.relocs.push_back(std::move(cand));
    }

    // Apply relocations (newest last wins per LBA).
    for (const auto &cand : rc.relocs) {
        const MdEntry &e = cand.entry;
        bool parity = e.inline_data.size() > 4 && e.inline_data[4] == 1;
        Relocation rel;
        rel.dev = cand.dev;
        rel.md_pba = e.pba + 1;
        if (store_data_)
            rel.cached = e.payload;
        if (parity) {
            rel.lba = e.header.start_lba; // zs_key
            rel.nsectors = cfg_.su_sectors;
            parity_reloc_[e.header.start_lba] = std::move(rel);
            uint32_t z = static_cast<uint32_t>(e.header.start_lba >> 32);
            zones_[z].has_reloc = true;
        } else {
            rel.lba = e.header.start_lba;
            rel.nsectors = static_cast<uint32_t>(e.header.end_lba -
                                                 e.header.start_lba);
            uint32_t z = layout_->zone_of(rel.lba);
            zones_[z].has_reloc = true;
            reloc_.insert(std::move(rel));
        }
    }

    // Build the partial-parity index. Checkpointed entries that overlap
    // a normal entry for the same stripe are discarded (§4.3).
    std::set<uint64_t> stripes_with_normal;
    for (const auto &cand : rc.pps) {
        if (cand.entry.header.checkpoint)
            continue;
        uint32_t z = layout_->zone_of(cand.entry.header.start_lba);
        uint64_t off = cand.entry.header.start_lba -
            layout_->zone_start_lba(z);
        stripes_with_normal.insert(
            zs_key(z, off / layout_->stripe_sectors()));
    }
    for (const auto &cand : rc.pps) {
        const MdEntry &e = cand.entry;
        uint32_t z = layout_->zone_of(e.header.start_lba);
        uint64_t off = e.header.start_lba - layout_->zone_start_lba(z);
        uint64_t stripe = off / layout_->stripe_sectors();
        uint64_t key = zs_key(z, stripe);
        if (e.header.checkpoint && stripes_with_normal.count(key))
            continue;
        PpRecord rec;
        rec.start_lba = e.header.start_lba;
        rec.end_lba = e.header.end_lba;
        uint32_t lo32 = 0;
        if (e.inline_data.size() >= 8)
            std::memcpy(&lo32, e.inline_data.data() + 4, 4);
        rec.lo_sector = lo32;
        if (store_data_)
            rec.delta = e.payload;
        // A record can be logged twice — the rebuild re-logs a zone's
        // folded tail parity, and a crash between re-log and resume
        // replays both copies. Folding identical deltas twice XORs
        // them away, so duplicates (same range, same lane) are
        // dropped, never folded.
        auto &recs = pp_index_[key];
        bool dup = std::any_of(
            recs.begin(), recs.end(), [&](const PpRecord &r) {
                return r.start_lba == rec.start_lba &&
                    r.end_lba == rec.end_lba &&
                    r.lo_sector == rec.lo_sector;
            });
        if (dup)
            continue;
        recs.push_back(std::move(rec));
    }
    // Order each stripe's records by start LBA ("in order", §5.1).
    for (auto &[key, recs] : pp_index_) {
        std::sort(recs.begin(), recs.end(),
                  [](const PpRecord &a, const PpRecord &b) {
                      return a.start_lba < b.start_lba;
                  });
    }
    return Status::ok();
}

Status
RaiznVolume::complete_partial_reset(uint32_t zone)
{
    stats_.partial_zone_resets_completed++;
    uint64_t phys_start =
        static_cast<uint64_t>(zone) * layout_->phys_zone_size();
    for (uint32_t d = 0; d < devs_.size(); ++d) {
        if (dev_down(d))
            continue;
        IoRequest rst = IoRequest::zone_reset(phys_start);
        rst.cause = obs::Cause::kWalMd;
        auto res = dev_sync(d, std::move(rst));
        if (!res.status.is_ok())
            return res.status;
    }
    gen_.increment(zone);
    return Status::ok();
}

Status
RaiznVolume::recover_logical_zone(uint32_t zone, RecoveryCtx &rc)
{
    LZone &lz = zones_[zone];
    std::vector<uint64_t> written(devs_.size(), 0);
    bool any_written = false;
    bool all_full = true;
    for (uint32_t d = 0; d < devs_.size(); ++d) {
        if (dev_down(d)) {
            all_full = false;
            continue;
        }
        auto zi = devs_[d]->zone_info(zone);
        if (!zi.is_ok())
            return zi.status();
        written[d] = zi.value().written();
        any_written |= written[d] > 0;
        all_full &= zi.value().state == raizn::ZoneState::kFull;
    }

    if (rc.pending_resets.count(zone)) {
        // A logged reset did not complete on every device: finish it
        // now (§5.2). The generation bump invalidates stale metadata.
        if (any_written) {
            Status st = complete_partial_reset(zone);
            if (!st)
                return st;
        } else {
            gen_.increment(zone);
        }
        lz.cond = raizn::ZoneState::kEmpty;
        lz.wp = lz.start;
        return Status::ok();
    }

    // A degraded zone empty on every live device may still hold
    // FUA-acked content reconstructable from the replayed pp log.
    bool pp_backed = false;
    if (failed_dev_ >= 0) {
        for (const auto &[key, recs] : pp_index_) {
            if (static_cast<uint32_t>(key >> 32) == zone && !recs.empty())
                pp_backed = true;
        }
    }

    if (!any_written && !pp_backed) {
        lz.cond = raizn::ZoneState::kEmpty;
        lz.wp = lz.start;
        return Status::ok();
    }

    if (all_full && failed_dev_ < 0) {
        lz.cond = raizn::ZoneState::kFull;
        lz.wp = lz.cap_end;
        lz.pbm.reset(layout_->logical_zone_cap() / cfg_.su_sectors,
                     cfg_.su_sectors);
        lz.pbm.mark_persisted_upto(lz.cap_end - lz.start);
        return Status::ok();
    }

    Status st = repair_or_remap(zone, std::move(written));
    if (!st)
        return st;

    lz.pbm.reset(layout_->logical_zone_cap() / cfg_.su_sectors,
                 cfg_.su_sectors);
    lz.pbm.mark_persisted_upto(lz.wp - lz.start);
    if (lz.wp == lz.start) {
        lz.cond = raizn::ZoneState::kEmpty;
    } else if (lz.wp == lz.cap_end) {
        lz.cond = raizn::ZoneState::kFull;
    } else {
        lz.cond = raizn::ZoneState::kClosed;
        st = rebuild_tail_buffer(zone);
        if (!st)
            return st;
    }
    return Status::ok();
}

Status
RaiznVolume::repair_or_remap(uint32_t zone, std::vector<uint64_t> written)
{
    LZone &lz = zones_[zone];
    const uint32_t su = cfg_.su_sectors;
    const uint64_t ss = layout_->stripe_sectors();
    const uint32_t D = cfg_.data_units();

    // Claimed logical fill: the most any device implies.
    uint64_t L = 0;
    for (uint32_t d = 0; d < devs_.size(); ++d) {
        if (dev_down(d))
            continue;
        L = std::max(L,
                     layout_->progress_from_device(zone, d, written[d]));
    }
    // The replayed partial-parity log can prove more progress than any
    // device write pointer: a FUA-acked degraded write whose data unit
    // lives on the failed device is durable only as a pp record (§5.1).
    // Claim that progress too; the stripe walk below rolls back any
    // part of the claim that cannot actually be reconstructed.
    for (const auto &[key, recs] : pp_index_) {
        if (static_cast<uint32_t>(key >> 32) != zone)
            continue;
        for (const PpRecord &rec : recs)
            L = std::max(L, rec.end_lba - lz.start);
    }
    L = std::min(L, layout_->logical_zone_cap());

    // Expected physical fill of device d for logical fill l.
    auto expected = [&](uint32_t d, uint64_t l) -> uint64_t {
        uint64_t fs = l / ss;
        uint64_t rem = l % ss;
        uint64_t e = fs * su;
        if (rem > 0) {
            int pos = layout_->data_pos_of_dev(zone, fs, d);
            if (pos >= 0) {
                uint64_t start = static_cast<uint64_t>(pos) * su;
                if (rem > start)
                    e += std::min<uint64_t>(su, rem - start);
            }
        }
        return e;
    };

    // Cumulative partial parity for a stripe, from the replayed index.
    auto partial_parity_for = [&](uint64_t stripe, uint64_t *cov_end)
        -> std::vector<uint8_t> {
        std::vector<uint8_t> parity(static_cast<size_t>(su) * kSectorSize,
                                    0);
        *cov_end = 0;
        auto it = pp_index_.find(zs_key(zone, stripe));
        if (it == pp_index_.end())
            return parity;
        for (const PpRecord &rec : it->second) {
            *cov_end = std::max(*cov_end, rec.end_lba);
            if (!rec.delta.empty()) {
                xor_bytes(parity.data() + rec.lo_sector * kSectorSize,
                          rec.delta.data(), rec.delta.size());
            }
        }
        return parity;
    };

    // Walk stripes covered by L and repair holes in place while
    // possible. F tracks the first unrecoverable logical offset.
    uint64_t F = L;
    uint64_t first_stripe = UINT64_MAX, last_stripe = 0;
    for (uint32_t d = 0; d < devs_.size(); ++d) {
        if (dev_down(d))
            continue;
        uint64_t e = expected(d, L);
        if (written[d] < e) {
            first_stripe = std::min(first_stripe, written[d] / su);
            last_stripe = std::max(last_stripe, (e - 1) / su);
        }
    }
    if (failed_dev_ >= 0) {
        // Every stripe holding failed-device data within L must prove
        // that unit reconstructable (durable parity or durable pp),
        // even when no live device has a hole — otherwise the fill is
        // rolled back to the unit, not discovered lost at read time.
        for (uint64_t s = 0; s * ss < L; ++s) {
            if (layout_->data_pos_of_dev(
                    zone, s, static_cast<uint32_t>(failed_dev_)) < 0) {
                continue;
            }
            uint64_t e = expected(static_cast<uint32_t>(failed_dev_), L);
            if (e <= s * su)
                continue;
            first_stripe = std::min(first_stripe, s);
            last_stripe = std::max(last_stripe, s);
        }
    }

    if (first_stripe != UINT64_MAX) {
        for (uint64_t s = first_stripe; s <= last_stripe && F == L; ++s) {
            // Identify missing pieces in stripe s.
            struct Piece {
                uint32_t dev;
                int pos; ///< -1 = parity
                uint64_t lo, hi; ///< sector range within the slot
            };
            std::vector<Piece> missing;
            uint64_t slot = s * su;
            for (uint32_t d = 0; d < devs_.size(); ++d) {
                if (dev_down(d))
                    continue;
                uint64_t e = std::min(expected(d, L), slot + su);
                if (e <= slot)
                    continue;
                uint64_t have = std::min(std::max(written[d], slot), e);
                if (have < e) {
                    missing.push_back({d,
                                       layout_->data_pos_of_dev(zone, s, d),
                                       have - slot, e - slot});
                }
            }
            // A failed device's data unit in this stripe is also
            // unavailable — but only the part below L; an unwritten
            // failed unit (tail stripe) holds nothing and must not
            // count against the single-parity budget.
            int failed_pos = failed_dev_ >= 0
                ? layout_->data_pos_of_dev(
                      zone, s, static_cast<uint32_t>(failed_dev_))
                : -1;
            uint64_t failed_hi = 0;
            if (failed_pos >= 0) {
                uint64_t e = std::min(
                    expected(static_cast<uint32_t>(failed_dev_), L),
                    slot + su);
                if (e > slot)
                    failed_hi = e - slot;
            }
            if (missing.empty() && failed_hi == 0)
                continue;

            int missing_data = 0;
            for (const Piece &p : missing)
                missing_data += (p.pos >= 0);
            // More than one unavailable data unit per stripe is
            // unrecoverable (single parity).
            uint32_t unavailable = static_cast<uint32_t>(missing_data) +
                (failed_hi > 0 ? 1 : 0);

            uint32_t pdev = layout_->parity_dev(zone, s);
            bool parity_present = !dev_down(pdev) &&
                written[pdev] >= slot + su;
            for (const Piece &p : missing)
                if (p.pos < 0)
                    parity_present = false;

            uint64_t cov_end = 0;
            std::vector<uint8_t> pparity;
            bool pp_usable = false;
            {
                pparity = partial_parity_for(s, &cov_end);
                uint64_t stripe_start_lba =
                    lz.start + s * ss;
                // Coverage must reach the end of every missing piece's
                // logical range.
                pp_usable = true;
                for (const Piece &p : missing) {
                    if (p.pos < 0)
                        continue;
                    uint64_t need = stripe_start_lba +
                        static_cast<uint64_t>(p.pos) * su + p.hi;
                    // pp covers logical range up to cov_end.
                    uint64_t logical_need = std::min(
                        need, stripe_start_lba + ss);
                    if (cov_end < logical_need)
                        pp_usable = false;
                }
                if (failed_hi > 0) {
                    // Reconstructing the failed unit needs pp coverage
                    // through its written extent as well.
                    uint64_t need = stripe_start_lba +
                        static_cast<uint64_t>(failed_pos) * su +
                        failed_hi;
                    if (cov_end < std::min(need, stripe_start_lba + ss))
                        pp_usable = false;
                }
                if (!store_data_)
                    pp_usable = pp_index_.count(zs_key(zone, s)) > 0;
                if (dev_down(pdev))
                    pp_usable = false; // pp lives on the parity device
            }

            bool recoverable;
            if (missing_data == 0 && failed_hi == 0) {
                // Only parity missing; rebuild it from the data units.
                recoverable = true;
            } else if (unavailable <= 1) {
                recoverable = parity_present || pp_usable;
            } else {
                recoverable = false;
            }

            if (!recoverable) {
                // First lost logical sector in this stripe, counting
                // the failed device's unit when it cannot be rebuilt.
                uint64_t f = L;
                for (const Piece &p : missing) {
                    if (p.pos < 0)
                        continue;
                    f = std::min(f, s * ss +
                                        static_cast<uint64_t>(p.pos) * su +
                                        p.lo);
                }
                if (failed_hi > 0 && !parity_present) {
                    // The failed unit is extractable from the pp
                    // accumulator only up to the log's coverage of it;
                    // anything beyond is lost with the device. A fully
                    // covered unit is not lost at all, even when the
                    // stripe rolls back for other missing pieces.
                    uint64_t ustart_lba = lz.start + s * ss +
                        static_cast<uint64_t>(failed_pos) * su;
                    uint64_t ppc = cov_end > ustart_lba
                        ? std::min<uint64_t>(failed_hi,
                                             cov_end - ustart_lba)
                        : 0;
                    if (dev_down(pdev))
                        ppc = 0; // pp lives on the parity device
                    if (!store_data_ &&
                        pp_index_.count(zs_key(zone, s)) > 0)
                        ppc = failed_hi;
                    if (ppc < failed_hi) {
                        f = std::min(
                            f, s * ss +
                                static_cast<uint64_t>(failed_pos) * su +
                                ppc);
                    }
                }
                F = std::min(F, f);
                break;
            }

            // Reconstruct and write each missing piece in place. Data
            // units first, then parity (which may depend on them).
            std::sort(missing.begin(), missing.end(),
                      [](const Piece &a, const Piece &b) {
                          return (a.pos < 0 ? 1 : 0) <
                              (b.pos < 0 ? 1 : 0);
                      });
            for (const Piece &p : missing) {
                uint64_t pba = static_cast<uint64_t>(zone) *
                        layout_->phys_zone_size() +
                    slot + p.lo;
                std::vector<uint8_t> content(
                    static_cast<size_t>(p.hi - p.lo) * kSectorSize, 0);
                if (store_data_) {
                    if (p.pos >= 0) {
                        // Missing data unit: XOR of parity (or partial
                        // parity) with the surviving data units.
                        std::vector<uint8_t> acc(content.size(), 0);
                        if (parity_present) {
                            IoRequest prd = IoRequest::read(
                                static_cast<uint64_t>(zone) *
                                        layout_->phys_zone_size() +
                                    slot + p.lo,
                                static_cast<uint32_t>(p.hi - p.lo));
                            prd.cause = obs::Cause::kWalMd;
                            auto r = dev_sync(pdev, std::move(prd));
                            if (!r.status.is_ok())
                                return r.status;
                            xor_bytes(acc.data(), r.data.data(),
                                      acc.size());
                        } else {
                            xor_bytes(acc.data(),
                                      pparity.data() + p.lo * kSectorSize,
                                      acc.size());
                        }
                        uint64_t stripe_lo_lba = lz.start + s * ss;
                        for (uint32_t k = 0; k < D; ++k) {
                            if (static_cast<int>(k) == p.pos)
                                continue;
                            uint32_t kd = layout_->data_dev(zone, s, k);
                            if (dev_down(kd))
                                continue;
                            // Only the portion this unit contributed to
                            // the (partial) parity.
                            uint64_t unit_avail = parity_present
                                ? su
                                : (cov_end > stripe_lo_lba +
                                           static_cast<uint64_t>(k) * su
                                       ? std::min<uint64_t>(
                                             su,
                                             cov_end -
                                                 (stripe_lo_lba +
                                                  static_cast<uint64_t>(
                                                      k) *
                                                      su))
                                       : 0);
                            uint64_t k_lo = p.lo, k_hi =
                                std::min(p.hi, unit_avail);
                            if (k_hi <= k_lo)
                                continue;
                            IoRequest krd = IoRequest::read(
                                static_cast<uint64_t>(zone) *
                                        layout_->phys_zone_size() +
                                    slot + k_lo,
                                static_cast<uint32_t>(k_hi - k_lo));
                            krd.cause = obs::Cause::kWalMd;
                            auto r = dev_sync(kd, std::move(krd));
                            if (!r.status.is_ok())
                                return r.status;
                            xor_bytes(acc.data(), r.data.data(),
                                      r.data.size());
                        }
                        content = std::move(acc);
                    } else {
                        // Missing parity: XOR of all data units. When
                        // the failed device holds a data unit of this
                        // stripe, that unit's content exists only in
                        // the pp accumulator — seed from it, and fold
                        // live units in only over the lanes the log
                        // does not already cover.
                        std::vector<uint8_t> acc(content.size(), 0);
                        uint64_t stripe_lo_lba = lz.start + s * ss;
                        bool use_pp = failed_pos >= 0;
                        if (use_pp) {
                            xor_bytes(acc.data(),
                                      pparity.data() + p.lo * kSectorSize,
                                      acc.size());
                        }
                        for (uint32_t k = 0; k < D; ++k) {
                            uint32_t kd = layout_->data_dev(zone, s, k);
                            if (dev_down(kd))
                                continue;
                            uint64_t k_lo = p.lo, k_hi = p.hi;
                            if (use_pp) {
                                uint64_t covered = cov_end >
                                        stripe_lo_lba +
                                            static_cast<uint64_t>(k) * su
                                    ? std::min<uint64_t>(
                                          su,
                                          cov_end -
                                              (stripe_lo_lba +
                                               static_cast<uint64_t>(k) *
                                                   su))
                                    : 0;
                                k_lo = std::max(k_lo, covered);
                            }
                            if (k_hi <= k_lo)
                                continue;
                            IoRequest krd = IoRequest::read(
                                static_cast<uint64_t>(zone) *
                                        layout_->phys_zone_size() +
                                    slot + k_lo,
                                static_cast<uint32_t>(k_hi - k_lo));
                            krd.cause = obs::Cause::kWalMd;
                            auto r = dev_sync(kd, std::move(krd));
                            if (!r.status.is_ok())
                                return r.status;
                            xor_bytes(acc.data() +
                                          (k_lo - p.lo) * kSectorSize,
                                      r.data.data(), r.data.size());
                        }
                        content = std::move(acc);
                    }
                }
                IoRequest pwr = IoRequest::write(pba, std::move(content));
                pwr.cause = obs::Cause::kWalMd;
                auto w = dev_sync(p.dev, std::move(pwr));
                if (!w.status.is_ok())
                    return w.status;
                written[p.dev] = slot + p.hi;
                stats_.holes_repaired_in_place++;
            }
        }
    }

    // A partial-parity record straddling the fill would poison
    // degraded reconstruction: its delta folds in lanes from
    // rolled-back sectors that no live device backs any more, and a
    // folded delta cannot be split. Roll the fill back to the record's
    // start (always a write boundary, so never below a durable ack)
    // whenever the tail stripe needs the pp log for a failed data unit.
    if (failed_dev_ >= 0) {
        bool moved = true;
        while (moved && F > 0) {
            moved = false;
            uint64_t s = (F - 1) / ss;
            int pos = layout_->data_pos_of_dev(
                zone, s, static_cast<uint32_t>(failed_dev_));
            if (pos < 0 ||
                s * ss + static_cast<uint64_t>(pos) * su >= F) {
                continue; // no failed data unit inside the fill
            }
            auto it = pp_index_.find(zs_key(zone, s));
            if (it == pp_index_.end())
                continue;
            for (const PpRecord &rec : it->second) {
                uint64_t rs = rec.start_lba - lz.start;
                uint64_t re = rec.end_lba - lz.start;
                if (rs < F && re > F) {
                    F = rs;
                    moved = true;
                }
            }
        }
    }

    if (F < L) {
        // Roll the logical fill back to hide unrecoverable sectors and
        // mark over-written physical tails as burned; future writes to
        // those PBAs relocate to the metadata zone (§5.2, Fig. 1).
        stats_.holes_remapped++;
        L = F;
        for (uint32_t d = 0; d < devs_.size(); ++d) {
            if (dev_down(d))
                continue;
            uint64_t e = expected(d, L);
            if (written[d] > e) {
                // Pad the device zone to a stripe-unit boundary so
                // later in-place writes stay aligned.
                uint64_t padded = round_up(written[d], su);
                if (padded > written[d]) {
                    uint64_t pba = static_cast<uint64_t>(zone) *
                            layout_->phys_zone_size() +
                        written[d];
                    std::vector<uint8_t> zeros;
                    if (store_data_) {
                        zeros.assign(
                            static_cast<size_t>(padded - written[d]) *
                                kSectorSize,
                            0);
                    }
                    IoRequest req;
                    req.op = IoOp::kWrite;
                    req.cause = obs::Cause::kWalMd;
                    req.slba = pba;
                    req.nsectors =
                        static_cast<uint32_t>(padded - written[d]);
                    req.data = std::move(zeros);
                    auto r = dev_sync(d, std::move(req));
                    if (!r.status.is_ok())
                        return r.status;
                }
                burned_.set(d, zone, e, padded);
            }
        }
    }

    // Drop pp records for writes entirely beyond the recovered fill:
    // they describe rolled-back data and would otherwise poison any
    // later degraded reconstruction of this zone's tail stripe. After
    // the roll-back above, no surviving record straddles L.
    for (auto it = pp_index_.lower_bound(zs_key(zone, 0));
         it != pp_index_.end() &&
         static_cast<uint32_t>(it->first >> 32) == zone;) {
        std::erase_if(it->second, [&](const PpRecord &rec) {
            return rec.start_lba - lz.start >= L;
        });
        if (it->second.empty())
            it = pp_index_.erase(it);
        else
            ++it;
    }

    lz.wp = lz.start + L;
    return Status::ok();
}

Status
RaiznVolume::rebuild_tail_buffer(uint32_t zone)
{
    LZone &lz = zones_[zone];
    uint64_t fill = lz.wp - lz.start;
    uint64_t in_stripe = fill % layout_->stripe_sectors();
    if (in_stripe == 0 || !store_data_)
        return Status::ok();
    uint64_t stripe = fill / layout_->stripe_sectors();
    uint64_t from = lz.start + stripe * layout_->stripe_sectors();

    Status st;
    std::vector<uint8_t> data;
    bool done = false;
    read(from, static_cast<uint32_t>(in_stripe), [&](IoResult r) {
        st = r.status;
        data = std::move(r.data);
        done = true;
    });
    loop_->run_until_pred([&] { return done; });
    if (!st)
        return st;

    StripeBuffer *buf = get_buffer(zone, stripe);
    std::vector<uint8_t> full(buf->stripe_sectors() * kSectorSize, 0);
    std::memcpy(full.data(), data.data(),
                std::min(full.size(), data.size()));
    buf->restore(stripe, std::move(full), in_stripe);
    return Status::ok();
}

Status
RaiznVolume::rebuild_physical_zone(uint32_t dev, uint32_t zone,
                                   const ZoneRebuildRecord *resume)
{
    if (dev_down(dev))
        return Status::ok();
    stats_.phys_zone_rebuilds++;
    LZone &lz = zones_[zone];
    uint64_t phys_start =
        static_cast<uint64_t>(zone) * layout_->phys_zone_size();

    auto log_phase = [&](uint32_t phase, uint32_t swap_idx,
                         uint64_t image) -> Status {
        MdAppend app;
        app.header.type = MdType::kZoneRebuildLog;
        app.header.start_lba = lz.start;
        app.header.end_lba = lz.cap_end;
        app.header.generation = gen_.get(zone);
        app.inline_data = encode_zone_rebuild(
            {zone, dev, phase, swap_idx, image});
        // Shared: an append parked behind the swap zone this rebuild
        // holds completes only after this frame has returned.
        auto out = std::make_shared<std::optional<Status>>();
        md_->append(dev, MdZoneRole::kGeneral, std::move(app), true,
                    [out](Status s) { *out = s; });
        if (!loop_->run_until_pred([&] { return out->has_value(); })) {
            return Status(StatusCode::kNoSpace,
                          "zone rebuild: metadata log full while its "
                          "swap zone is lent out");
        }
        return **out;
    };

    uint32_t swap_idx = 0;
    uint64_t image_sectors = 0;

    if (resume != nullptr && resume->phase == 1) {
        // Crash after the image reached the swap zone: the data zone
        // may be partially reset/rewritten; redo reset + copy-back from
        // the swap image.
        swap_idx = resume->swap_idx;
        image_sectors = resume->image_sectors;
    } else {
        // Fresh rebuild (or crash before the image was durable; the
        // data zone is untouched, so restart from scratch).
        auto zi = devs_[dev]->zone_info(zone);
        if (!zi.is_ok())
            return zi.status();
        uint64_t valid = zi.value().written();
        image_sectors = valid;
        auto sw = md_->borrow_swap(dev);
        if (!sw.is_ok())
            return sw.status();
        swap_idx = sw.value();

        Status st = log_phase(0, swap_idx, image_sectors);
        if (!st)
            return st;

        // Build the merged image: device contents with relocated
        // stripe units folded back to their arithmetic position.
        std::vector<uint8_t> image;
        if (store_data_) {
            IoRequest rd = IoRequest::read(
                phys_start, static_cast<uint32_t>(valid));
            rd.cause = obs::Cause::kRelocation;
            auto r = dev_sync(dev, std::move(rd));
            if (!r.status.is_ok())
                return r.status;
            image = std::move(r.data);
            for (const Relocation *rel : reloc_.all()) {
                if (rel->dev != dev ||
                    layout_->zone_of(rel->lba) != zone ||
                    rel->cached.empty()) {
                    continue;
                }
                uint32_t rdev;
                uint64_t rpba;
                layout_->map_sector(rel->lba, &rdev, &rpba);
                if (rdev != dev)
                    continue;
                uint64_t off = (rpba - phys_start) * kSectorSize;
                if (off + rel->cached.size() <= image.size()) {
                    std::memcpy(image.data() + off, rel->cached.data(),
                                rel->cached.size());
                }
            }
        } else {
            image.assign(static_cast<size_t>(valid) * kSectorSize, 0);
        }

        // Copy the image into the swap zone (durable), then declare
        // phase 1.
        uint64_t swap_pba = layout_->md_zone_start(swap_idx);
        if (valid > 0) {
            IoRequest req;
            req.op = IoOp::kWrite;
            req.cause = obs::Cause::kRelocation;
            req.slba = swap_pba;
            req.nsectors = static_cast<uint32_t>(valid);
            req.fua = true;
            if (store_data_)
                req.data = image;
            auto r = dev_sync(dev, std::move(req));
            if (!r.status.is_ok())
                return r.status;
        }
        st = log_phase(1, swap_idx, image_sectors);
        if (!st)
            return st;
    }

    // Reset the data zone and copy the image back.
    IoRequest zrst = IoRequest::zone_reset(phys_start);
    zrst.cause = obs::Cause::kRelocation;
    auto r = dev_sync(dev, std::move(zrst));
    if (!r.status.is_ok())
        return r.status;
    if (image_sectors > 0) {
        uint64_t swap_pba = layout_->md_zone_start(swap_idx);
        IoRequest ird = IoRequest::read(
            swap_pba, static_cast<uint32_t>(image_sectors));
        ird.cause = obs::Cause::kRelocation;
        auto img = dev_sync(dev, std::move(ird));
        if (!img.status.is_ok())
            return img.status;
        IoRequest req;
        req.op = IoOp::kWrite;
        req.cause = obs::Cause::kRelocation;
        req.slba = phys_start;
        req.nsectors = static_cast<uint32_t>(image_sectors);
        req.fua = true;
        req.data = std::move(img.data);
        r = dev_sync(dev, std::move(req));
        if (!r.status.is_ok())
            return r.status;
    }
    Status st = log_phase(2, swap_idx, image_sectors);
    if (!st)
        return st;

    // Reset the swap zone and hand it back.
    IoRequest srst =
        IoRequest::zone_reset(layout_->md_zone_start(swap_idx));
    srst.cause = obs::Cause::kRelocation;
    r = dev_sync(dev, std::move(srst));
    if (!r.status.is_ok())
        return r.status;
    md_->return_swap(dev, swap_idx);

    // Drop the folded relocations and burned ranges.
    std::vector<uint64_t> to_drop;
    for (const Relocation *rel : reloc_.all()) {
        if (rel->dev == dev && layout_->zone_of(rel->lba) == zone) {
            uint32_t rdev;
            uint64_t rpba;
            layout_->map_sector(rel->lba, &rdev, &rpba);
            if (rdev == dev)
                to_drop.push_back(rel->lba);
        }
    }
    for (uint64_t lba : to_drop)
        reloc_.drop_zone(lba, lba + 1);
    burned_.clear_dev_zone(dev, zone);
    bool any_left = false;
    for (const Relocation *rel : reloc_.all()) {
        if (layout_->zone_of(rel->lba) == zone)
            any_left = true;
    }
    zones_[zone].has_reloc = any_left ||
        std::any_of(parity_reloc_.begin(), parity_reloc_.end(),
                    [zone](const auto &kv) {
                        return (kv.first >> 32) == zone;
                    });
    return Status::ok();
}

} // namespace raizn
