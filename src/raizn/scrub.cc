/**
 * @file
 * Background scrub with read-repair.
 *
 * The scrubber walks every stripe stored at its home placement, reads
 * all data units plus the parity, and verifies the parity equation
 * XOR(data units) == parity. A mismatch is localised with the
 * per-sector CRC catalog kept by the write path: the unit whose
 * checksums disagree with its on-device payload is reconstructed from
 * the surviving units and the parity, and the repair is persisted as a
 * relocated stripe unit in the metadata zones — the same mechanism the
 * write path uses for burned slots, so reads and recovery pick it up
 * with no extra machinery. When every data unit checks clean the
 * parity itself is the corrupt side and is rewritten (also via
 * relocation; the physical parity slot cannot be overwritten in
 * place on ZNS).
 *
 * Stripes whose generation changes or whose zone blocks mid-scrub are
 * silently skipped: a concurrent reset invalidates the read snapshot.
 */
#include "raizn/volume_impl.h"

#include <algorithm>
#include <cstring>

#include "common/crc32.h"
#include "common/logging.h"
#include "obs/trace.h"
#include "raizn/stripe_buffer.h"
#include "sim/event_loop.h"

namespace raizn {

namespace {

/// Key for per-(zone, stripe) maps (mirrors volume.cc).
uint64_t
zs_key(uint32_t zone, uint64_t stripe)
{
    return (static_cast<uint64_t>(zone) << 32) | stripe;
}

} // namespace

std::vector<std::pair<uint32_t, uint64_t>>
RaiznVolume::scrub_candidates() const
{
    std::vector<std::pair<uint32_t, uint64_t>> out;
    if (!store_data_ || read_only_)
        return out;
    const uint64_t ss = layout_->stripe_sectors();
    const uint32_t su = cfg_.su_sectors;
    for (uint32_t z = 0; z < zones_.size(); ++z) {
        const LZone &lz = zones_[z];
        if (lz.blocked || lz.written() == 0)
            continue;
        // Scrub only verifies healthy stripes: with a device down the
        // parity equation cannot be checked, let alone repaired.
        bool degraded = false;
        uint64_t min_wp = UINT64_MAX;
        for (uint32_t d = 0; d < devs_.size(); ++d) {
            if (dev_unavailable(d, z)) {
                degraded = true;
                break;
            }
            auto zi = devs_[d]->zone_info(z);
            if (!zi.is_ok()) {
                degraded = true;
                break;
            }
            min_wp = std::min(min_wp, zi.value().wp);
        }
        if (degraded)
            continue;
        uint64_t nstripes = (lz.written() + ss - 1) / ss;
        for (uint64_t s = 0; s < nstripes; ++s) {
            // Every unit of the stripe (data and parity) must be
            // physically written at its home slot on every device —
            // relocated or partially-written stripes are served from
            // the metadata zones and are not scrub's to verify.
            if (layout_->slot_pba(z, s) + su > min_wp)
                break;
            if (stripe_displaced(z, s))
                continue;
            out.emplace_back(z, s);
        }
    }
    return out;
}

void
RaiznVolume::scrub_stripe(uint32_t zone, uint64_t stripe, ScrubReport *rep,
                          std::function<void()> done)
{
    const uint32_t D = cfg_.data_units();
    const uint32_t su = cfg_.su_sectors;
    const uint64_t slot = layout_->slot_pba(zone, stripe);
    const uint64_t gen0 = gen_.get(zone);

    struct ScrubCtx {
        uint32_t remaining = 0;
        bool failed = false;
        std::vector<std::vector<uint8_t>> units;
        std::vector<uint8_t> parity;
        std::function<void()> done;
        uint64_t trace_req = 0;
        uint64_t token = 0; ///< open "scrub.stripe" span
    };
    auto ctx = std::make_shared<ScrubCtx>();
    ctx->remaining = D + 1;
    ctx->units.resize(D);
    ctx->done = std::move(done);
    if (trace_ != nullptr) {
        ctx->trace_req = trace_->next_request_id();
        ctx->token = trace_->begin_span("scrub.stripe", ctx->trace_req,
                                        obs::kTrackMetadata,
                                        loop_->now());
    }

    auto finish = [this, ctx, zone, stripe, rep, gen0, su, D] {
        if (trace_ != nullptr && ctx->token != 0) {
            trace_->end_span(ctx->token, loop_->now());
            ctx->token = 0;
        }
        if (gen_.get(zone) != gen0 || zones_[zone].blocked ||
            stripe_displaced(zone, stripe)) {
            // The zone was reset or the stripe moved under the scrub
            // reads; the snapshot is stale, skip without counting.
            auto d = std::move(ctx->done);
            d();
            return;
        }
        rep->stripes_scanned++;
        stats_.scrubbed_stripes++;
        if (ctx->failed) {
            rep->unrecoverable++;
            auto d = std::move(ctx->done);
            d();
            return;
        }
        const size_t unit_bytes = static_cast<size_t>(su) * kSectorSize;
        std::vector<uint8_t> acc(unit_bytes, 0);
        for (uint32_t k = 0; k < D; ++k)
            xor_bytes(acc.data(), ctx->units[k].data(), unit_bytes);
        LZone &lz = zones_[zone];
        const uint64_t stripe_off = stripe * layout_->stripe_sectors();
        if (std::memcmp(acc.data(), ctx->parity.data(), unit_bytes) == 0) {
            // Healthy stripe. Backfill checksums the catalog is
            // missing (it starts empty after a remount) so future
            // corruption here is localisable.
            for (uint32_t k = 0; k < D; ++k) {
                uint64_t off = stripe_off + static_cast<uint64_t>(k) * su;
                bool missing = lz.crc_valid.empty();
                if (!missing) {
                    for (uint32_t s = 0; s < su; ++s)
                        missing |= !lz.crc_valid[off + s];
                }
                if (missing)
                    note_written_crcs(zone, off, ctx->units[k], su);
            }
            auto d = std::move(ctx->done);
            d();
            return;
        }
        rep->parity_mismatches++;
        // Localise the corruption with the CRC catalog.
        bool have_catalog = !lz.crc_valid.empty();
        std::vector<uint32_t> bad;
        uint64_t covered = 0;
        if (have_catalog) {
            for (uint32_t k = 0; k < D; ++k) {
                uint64_t off = stripe_off + static_cast<uint64_t>(k) * su;
                bool unit_bad = false;
                for (uint32_t s = 0; s < su; ++s) {
                    if (!lz.crc_valid[off + s])
                        continue;
                    covered++;
                    uint32_t c = crc32c(
                        ctx->units[k].data() +
                            static_cast<size_t>(s) * kSectorSize,
                        kSectorSize);
                    if (c != lz.crcs[off + s])
                        unit_bad = true;
                }
                if (unit_bad)
                    bad.push_back(k);
            }
        }
        if (!have_catalog || covered == 0) {
            // No checksums to localise with: the mismatch is real but
            // the corrupt side is unknown.
            rep->unrecoverable++;
        } else if (bad.size() == 1) {
            uint32_t k = bad[0];
            rep->crc_mismatches++;
            stats_.crc_mismatches++;
            // Rebuild unit k from the survivors and the parity, then
            // double-check the reconstruction against the catalog
            // before trusting it.
            std::vector<uint8_t> rec(unit_bytes, 0);
            xor_bytes(rec.data(), ctx->parity.data(), unit_bytes);
            for (uint32_t j = 0; j < D; ++j) {
                if (j != k)
                    xor_bytes(rec.data(), ctx->units[j].data(), unit_bytes);
            }
            uint64_t off = stripe_off + static_cast<uint64_t>(k) * su;
            bool ok = true;
            for (uint32_t s = 0; s < su; ++s) {
                if (!lz.crc_valid[off + s])
                    continue;
                uint32_t c = crc32c(rec.data() +
                                        static_cast<size_t>(s) * kSectorSize,
                                    kSectorSize);
                if (c != lz.crcs[off + s])
                    ok = false;
            }
            if (ok) {
                scrub_repair_unit(zone, stripe, k, std::move(rec));
                rep->repaired_units++;
            } else {
                rep->unrecoverable++;
            }
        } else if (bad.empty()) {
            // Every data unit checks clean: the parity side is corrupt
            // — but only if the catalog covers the whole stripe, else
            // an uncovered sector could be the real culprit.
            if (covered == static_cast<uint64_t>(D) * su) {
                scrub_repair_parity(zone, stripe, std::move(acc));
                rep->repaired_parity++;
            } else {
                rep->unrecoverable++;
            }
        } else {
            // More than one unit disagrees with its checksums: single
            // parity cannot reconstruct two losses.
            rep->crc_mismatches += bad.size();
            stats_.crc_mismatches += bad.size();
            rep->unrecoverable++;
        }
        auto d = std::move(ctx->done);
        d();
    };

    const size_t want = static_cast<size_t>(su) * kSectorSize;
    auto one_done = [ctx, finish, want](std::vector<uint8_t> *into,
                                        IoResult r) {
        if (!r.status.is_ok() || r.data.size() != want)
            ctx->failed = true;
        else
            *into = std::move(r.data);
        if (--ctx->remaining == 0)
            finish();
    };

    for (uint32_t k = 0; k < D; ++k) {
        uint32_t dev = layout_->data_dev(zone, stripe, k);
        ctx->units[k].reserve(static_cast<size_t>(su) * kSectorSize);
        auto *into = &ctx->units[k];
        IoRequest rreq = IoRequest::read(slot, su);
        rreq.trace_req = ctx->trace_req;
        rreq.trace_stage = "scrub.read";
        rreq.cause = obs::Cause::kScrub;
        dev_submit(dev, std::move(rreq),
                   [one_done, into](IoResult r) {
                       one_done(into, std::move(r));
                   });
    }
    uint32_t pdev = layout_->parity_dev(zone, stripe);
    ctx->parity.reserve(static_cast<size_t>(su) * kSectorSize);
    IoRequest preq = IoRequest::read(slot, su);
    preq.trace_req = ctx->trace_req;
    preq.trace_stage = "scrub.read";
    preq.cause = obs::Cause::kScrub;
    dev_submit(pdev, std::move(preq),
               [one_done, ctx](IoResult r) {
                   one_done(&ctx->parity, std::move(r));
               });
}

void
RaiznVolume::scrub_repair_unit(uint32_t zone, uint64_t stripe, uint32_t k,
                               std::vector<uint8_t> data)
{
    // Persist the repair exactly like a relocated stripe unit: a
    // durable kRelocatedSu record in the home device's metadata zone.
    // The relocation map then shadows the corrupt physical slot for
    // every subsequent read, and recovery replays the record.
    stats_.read_repairs++;
    stats_.relocated_writes++;
    if (trace_ != nullptr) {
        trace_->instant("scrub.repair_unit", 0, obs::kTrackMetadata,
                        loop_->now());
    }
    zones_[zone].has_reloc = true;
    const uint32_t su = cfg_.su_sectors;
    uint32_t dev = layout_->data_dev(zone, stripe, k);
    uint64_t lba = layout_->zone_start_lba(zone) +
        stripe * layout_->stripe_sectors() +
        static_cast<uint64_t>(k) * su;

    // Refresh the catalog for the repaired range.
    note_written_crcs(zone, lba - zones_[zone].start, data, su);

    MdAppend app;
    app.header.type = MdType::kRelocatedSu;
    app.header.start_lba = lba;
    app.header.end_lba = lba + su;
    app.header.generation = gen_.get(zone);
    app.inline_data.assign(8, 0);
    app.payload = data;

    Relocation rel;
    rel.lba = lba;
    rel.nsectors = su;
    rel.dev = dev;
    rel.md_pba = 0; // set by reloc_placed
    rel.cached = std::move(data);
    reloc_.insert(std::move(rel));

    md_->append(
        dev, MdZoneRole::kGeneral, std::move(app),
        /*durable=*/true,
        [](Status s) {
            if (!s.is_ok()) {
                LOG_WARN("scrub repair persist failed: %s",
                         s.to_string().c_str());
            }
        },
        reloc_placed(lba, dev, false));
}

void
RaiznVolume::scrub_repair_parity(uint32_t zone, uint64_t stripe,
                                 std::vector<uint8_t> parity)
{
    // Mirror of the burned-parity-slot path in submit_parity_subio:
    // the recomputed parity lives in the metadata zone keyed by
    // (zone, stripe) and shadows the corrupt physical slot.
    stats_.read_repairs++;
    stats_.relocated_writes++;
    if (trace_ != nullptr) {
        trace_->instant("scrub.repair_parity", 0, obs::kTrackMetadata,
                        loop_->now());
    }
    uint32_t dev = layout_->parity_dev(zone, stripe);

    MdAppend app;
    app.header.type = MdType::kRelocatedSu;
    app.header.start_lba = zs_key(zone, stripe); // parity key
    app.header.end_lba = app.header.start_lba;
    app.header.generation = gen_.get(zone);
    app.inline_data.assign(8, 0);
    app.inline_data[4] = 1; // parity marker
    app.payload = parity;

    Relocation rel;
    rel.lba = app.header.start_lba;
    rel.nsectors = cfg_.su_sectors;
    rel.dev = dev;
    rel.md_pba = 0; // set by reloc_placed
    rel.cached = std::move(parity);
    parity_reloc_[zs_key(zone, stripe)] = std::move(rel);

    md_->append(
        dev, MdZoneRole::kGeneral, std::move(app),
        /*durable=*/true,
        [](Status s) {
            if (!s.is_ok()) {
                LOG_WARN("scrub parity persist failed: %s",
                         s.to_string().c_str());
            }
        },
        reloc_placed(zs_key(zone, stripe), dev, true));
}

Status
RaiznVolume::scrub_all(ScrubReport *report)
{
    ScrubReport local;
    ScrubReport *rep = report ? report : &local;
    *rep = ScrubReport{};
    auto stripes = scrub_candidates();
    if (stripes.empty())
        return Status::ok();

    // Chain the stripes sequentially: each completion kicks off the
    // next, and the event loop is driven until the chain ends.
    auto idx = std::make_shared<size_t>(0);
    auto finished = std::make_shared<bool>(false);
    auto step = std::make_shared<std::function<void()>>();
    *step = [this, idx, finished, step, rep,
             stripes = std::move(stripes)]() {
        if (*idx >= stripes.size()) {
            *finished = true;
            return;
        }
        auto [z, s] = stripes[(*idx)++];
        scrub_stripe(z, s, rep, [step] { (*step)(); });
    };
    (*step)();
    loop_->run_until_pred([&] { return *finished; });
    *step = nullptr; // break the self-reference cycle
    return Status::ok();
}

void
RaiznVolume::start_scrubber(Tick interval,
                            std::function<void(const ScrubReport &)> on_pass)
{
    stop_scrubber();
    scrub_running_ = true;
    scrub_interval_ = interval > 0 ? interval : 1;
    scrub_cb_ = std::move(on_pass);
    scrub_pass_ = ScrubReport{};
    scrub_queue_ = scrub_candidates();
    scrub_cursor_ = 0;
    arm_scrubber();
}

void
RaiznVolume::stop_scrubber()
{
    scrub_running_ = false;
    scrub_queue_.clear();
    scrub_cursor_ = 0;
    scrub_cb_ = nullptr;
}

void
RaiznVolume::arm_scrubber()
{
    loop_->schedule_after(scrub_interval_, [this, alive = alive_] {
        if (*alive && scrub_running_)
            scrubber_step();
    });
}

void
RaiznVolume::scrubber_step()
{
    if (scrub_cursor_ >= scrub_queue_.size()) {
        // Pass complete: report, then start the next pass over a fresh
        // candidate snapshot.
        if (scrub_cb_ && !scrub_queue_.empty())
            scrub_cb_(scrub_pass_);
        scrub_pass_ = ScrubReport{};
        scrub_queue_ = scrub_candidates();
        scrub_cursor_ = 0;
        if (scrub_queue_.empty()) {
            arm_scrubber(); // idle: poll again next interval
            return;
        }
    }
    auto [z, s] = scrub_queue_[scrub_cursor_++];
    scrub_stripe(z, s, &scrub_pass_, [this, alive = alive_] {
        if (*alive && scrub_running_)
            arm_scrubber();
    });
}

} // namespace raizn
