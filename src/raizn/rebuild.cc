/**
 * @file
 * Device rebuild (paper §4.2, Fig. 12). When a failed device is
 * replaced, RAIZN rebuilds it zone by zone — active (open/closed)
 * zones first, then full zones — reconstructing only LBA ranges that
 * contain user data (everything between each zone's start and its
 * write pointer). Empty zones are skipped entirely, which is why
 * RAIZN's time-to-repair scales with the amount of valid data while
 * mdraid's resync is constant.
 *
 * The rebuild is crash-resumable: a checkpoint record (which logical
 * zones of the target hold durable reconstructed data) is appended to
 * every surviving device's general metadata log — once before the
 * first write touches the target, after every completed zone, and as
 * a terminal "done" record. Mount-time recovery finds the newest
 * record and, for an in-progress one, re-marks the target as the
 * array's absent device so resume_rebuild() can verify and skip the
 * checkpointed zones instead of restarting. The final write of every
 * rebuilt zone carries FUA, which under the sequential zone cache
 * model persists the whole zone, so a checkpointed zone is durable by
 * construction.
 *
 * Rebuild traffic optionally flows through a token-bucket throttle so
 * degraded foreground service keeps a configurable share of the
 * array; see raizn/throttle.h.
 */
#include <algorithm>
#include <cassert>
#include <map>

#include "common/logging.h"
#include "obs/trace.h"
#include "raizn/volume_impl.h"
#include "sim/event_loop.h"

namespace raizn {

namespace {

uint64_t
zs_key(uint32_t zone, uint64_t stripe)
{
    return (static_cast<uint64_t>(zone) << 32) | stripe;
}

struct RebuildJob {
    uint32_t dev = 0;
    std::vector<uint32_t> zone_order;
    size_t zone_i = 0;
    RaiznVolume::ProgressCb progress;
    StatusCb done;
    Status status;

    // Per-zone pipeline state.
    uint32_t zone = 0;
    uint64_t fill = 0; ///< zone offset of the logical write pointer
    uint64_t nstripes = 0;
    uint64_t next_issue = 0;
    uint64_t next_write = 0;
    std::map<uint64_t, std::pair<bool, std::vector<uint8_t>>> ready;
    uint32_t inflight_writes = 0;
    bool zone_active = false;
    /// Last stripe index with a non-empty unit on the target: its
    /// write carries FUA so the whole zone is durable on completion.
    uint64_t last_data_stripe = 0;
    /// A throttle wake-up is already scheduled.
    bool throttle_armed = false;

    // Trace correlation (0 = tracing detached).
    uint64_t trace_req = 0;   ///< request id shared by every sub-span
    uint64_t total_token = 0; ///< open "rebuild.device" span
    uint64_t zone_token = 0;  ///< open "rebuild.zone" span

    static constexpr uint64_t kWindow = 32;
};

} // namespace

Status
RaiznVolume::rewrite_replicated_md(uint32_t dev)
{
    // The replacement's metadata zones start empty: re-bind roles and
    // re-persist the replicated metadata (superblock, generation
    // counters). Non-replicated metadata that lived on the failed
    // device (its parity logs and relocated stripe units) is obsolete.
    Status st = md_->format_device(dev);
    if (!st)
        return st;

    Superblock copy = sb_;
    copy.dev_id = dev;
    MdAppend sb_app;
    sb_app.header.type = MdType::kSuperblock;
    sb_app.inline_data = copy.encode();
    bool done = false;
    Status out;
    md_->append(dev, MdZoneRole::kGeneral, std::move(sb_app), true,
                [&](Status s) {
                    out = s;
                    done = true;
                });
    loop_->run_until_pred([&] { return done; });
    if (!out)
        return out;

    for (uint32_t b = 0; b < gen_.num_blocks(); ++b) {
        MdAppend app;
        app.header = gen_.block_header(b, gen_update_seq_++);
        app.inline_data = gen_.encode_block(b);
        done = false;
        md_->append(dev, MdZoneRole::kGeneral, std::move(app), true,
                    [&](Status s) {
                        out = s;
                        done = true;
                    });
        loop_->run_until_pred([&] { return done; });
        if (!out)
            return out;
    }
    return Status::ok();
}

std::vector<uint8_t>
RaiznVolume::encode_current_rebuild_checkpoint(uint32_t dev,
                                               uint32_t state,
                                               uint32_t cur_zone) const
{
    RebuildCheckpointRecord rec;
    rec.dev = dev;
    rec.state = state;
    rec.cur_zone = cur_zone;
    rec.rebuilt.assign(zones_.size(), false);
    uint32_t done = 0;
    for (uint32_t z = 0; z < zones_.size(); ++z) {
        if (z < zone_rebuilt_.size() && zone_rebuilt_[z]) {
            rec.rebuilt[z] = true;
            done++;
        }
    }
    rec.zones_done = done;
    return encode_rebuild_checkpoint(rec);
}

void
RaiznVolume::persist_rebuild_checkpoint(uint32_t dev, uint32_t state,
                                        uint32_t cur_zone, bool wait)
{
    std::vector<uint8_t> bytes =
        encode_current_rebuild_checkpoint(dev, state, cur_zone);
    uint64_t seq = gen_update_seq_++;
    auto pending = std::make_shared<uint32_t>(0);
    for (uint32_t d = 0; d < devs_.size(); ++d) {
        if (devs_[d]->failed())
            continue;
        // While the rebuild is in progress the target's own log is not
        // yet trustworthy (it may not even be formatted); only the
        // terminal record goes everywhere.
        if (d == dev &&
            state == RebuildCheckpointRecord::kInProgress) {
            continue;
        }
        MdAppend app;
        app.header.type = MdType::kRebuildCheckpoint;
        app.header.generation = seq;
        app.inline_data = bytes;
        (*pending)++;
        md_->append(d, MdZoneRole::kGeneral, std::move(app),
                    /*durable=*/true, [pending](Status s) {
                        if (!s.is_ok()) {
                            LOG_WARN("rebuild checkpoint append failed: "
                                     "%s",
                                     s.to_string().c_str());
                        }
                        (*pending)--;
                    });
    }
    stats_.rebuild_checkpoints++;
    if (trace_ != nullptr) {
        trace_->instant("rebuild.checkpoint", 0, obs::kTrackMetadata,
                        loop_->now());
    }
    if (wait)
        loop_->run_until_pred([pending] { return *pending == 0; });
}

uint64_t
RaiznVolume::expected_phys_fill(uint32_t dev, uint32_t zone) const
{
    const LZone &lz = zones_[zone];
    const uint32_t su = cfg_.su_sectors;
    const uint64_t ss = layout_->stripe_sectors();
    uint64_t fill = lz.wp - lz.start;
    uint64_t fs = fill / ss;
    uint64_t rem = fill % ss;
    // One stripe unit (data or parity) per complete stripe, plus this
    // device's written share of the tail stripe.
    uint64_t e = fs * su;
    if (rem > 0) {
        int pos = layout_->data_pos_of_dev(zone, fs, dev);
        if (pos >= 0) {
            uint64_t start = static_cast<uint64_t>(pos) * su;
            if (rem > start)
                e += std::min<uint64_t>(su, rem - start);
        }
    }
    return e;
}

void
RaiznVolume::relog_tail_pp(uint32_t dev, uint32_t zone)
{
    LZone &lz = zones_[zone];
    uint64_t fill = lz.wp - lz.start;
    uint64_t in_stripe = fill % layout_->stripe_sectors();
    if (in_stripe == 0)
        return;
    uint64_t stripe = fill / layout_->stripe_sectors();
    if (layout_->parity_dev(zone, stripe) != dev)
        return;
    auto it = pp_index_.find(zs_key(zone, stripe));
    if (it == pp_index_.end() || it->second.empty())
        return;
    std::vector<uint8_t> parity(
        static_cast<size_t>(cfg_.su_sectors) * kSectorSize, 0);
    uint64_t end = 0;
    for (const PpRecord &rec : it->second) {
        end = std::max(end, rec.end_lba);
        if (!rec.delta.empty()) {
            xor_bytes(parity.data() + rec.lo_sector * kSectorSize,
                      rec.delta.data(), rec.delta.size());
        }
    }
    uint64_t sectors = std::min<uint64_t>(cfg_.su_sectors, in_stripe);
    parity.resize(sectors * kSectorSize);
    MdAppend app = make_pp_append(
        zone, stripe, lz.start + stripe * layout_->stripe_sectors(), end,
        0, std::move(parity));
    // Durable: this is the only copy — the original record died with
    // the old device, and a crash between here and the next flush must
    // not lose the tail stripe's reconstructability.
    md_->append(dev, MdZoneRole::kParityLog, std::move(app), true,
                [](Status s) {
                    if (!s.is_ok()) {
                        LOG_WARN("tail pp re-log failed: %s",
                                 s.to_string().c_str());
                    }
                });
}

void
RaiznVolume::rebuild_device(uint32_t dev, ProgressCb progress,
                            StatusCb done)
{
    rebuild_device_internal(dev, /*resume=*/false, std::move(progress),
                            std::move(done));
}

void
RaiznVolume::resume_rebuild(ProgressCb progress, StatusCb done)
{
    if (pending_rebuild_dev_ < 0) {
        loop_->schedule_after(1, [done = std::move(done)] {
            done(Status(StatusCode::kInvalidArgument,
                        "no checkpointed rebuild to resume"));
        });
        return;
    }
    uint32_t dev = static_cast<uint32_t>(pending_rebuild_dev_);
    pending_rebuild_dev_ = -1;
    rebuild_device_internal(dev, /*resume=*/true, std::move(progress),
                            std::move(done));
}

void
RaiznVolume::rebuild_device_internal(uint32_t dev, bool resume,
                                     ProgressCb progress, StatusCb done)
{
    if (failed_dev_ != static_cast<int>(dev) || devs_[dev]->failed()) {
        loop_->schedule_after(1, [done = std::move(done)] {
            done(Status(StatusCode::kInvalidArgument,
                        "device not failed+replaced"));
        });
        return;
    }

    rebuilding_ = true;
    zone_rebuilt_.assign(zones_.size(), false);
    for (uint32_t z = 0; z < zones_.size(); ++z) {
        if (zones_[z].cond == raizn::ZoneState::kEmpty)
            zone_rebuilt_[z] = true;
    }

    if (resume) {
        // Trust a checkpointed zone only when the target's physical
        // write pointer matches the fill the recovered logical zone
        // implies; everything else is reset and rebuilt from parity.
        for (uint32_t z = 0; z < zones_.size(); ++z) {
            if (zone_rebuilt_[z])
                continue;
            bool verified = false;
            if (z < ckpt_rebuilt_.size() && ckpt_rebuilt_[z]) {
                auto zi = devs_[dev]->zone_info(z);
                if (zi.is_ok() &&
                    zi.value().written() == expected_phys_fill(dev, z)) {
                    verified = true;
                }
            }
            if (verified) {
                zone_rebuilt_[z] = true;
                stats_.rebuild_zones_resumed++;
                continue;
            }
            auto zi = devs_[dev]->zone_info(z);
            if (zi.is_ok() && zi.value().written() > 0) {
                uint64_t phys =
                    static_cast<uint64_t>(z) * layout_->phys_zone_size();
                IoRequest rst = IoRequest::zone_reset(phys);
                rst.cause = obs::Cause::kRebuild;
                auto r = dev_sync(dev, std::move(rst));
                if (!r.status.is_ok()) {
                    Status st = r.status;
                    loop_->schedule_after(
                        1, [done = std::move(done), st] { done(st); });
                    rebuilding_ = false;
                    return;
                }
            }
        }
        ckpt_rebuilt_.clear();
    }

    // The checkpoint must be durable on the survivors before anything
    // is written to the target: a crash in between would otherwise
    // leave a half-written device that the next mount cannot tell from
    // a healthy one.
    persist_rebuild_checkpoint(dev, RebuildCheckpointRecord::kInProgress,
                               ~0u, /*wait=*/true);

    Status st = rewrite_replicated_md(dev);
    if (!st) {
        rebuilding_ = false;
        loop_->schedule_after(1, [done = std::move(done), st] {
            done(st);
        });
        return;
    }

    if (resume) {
        // Re-formatting the target's metadata zones wiped whatever the
        // pre-crash rebuild had logged there; regenerate it from the
        // recovered in-memory state.
        for (const Relocation *rel : reloc_.all()) {
            if (rel->dev != dev)
                continue;
            MdAppend app;
            app.header.type = MdType::kRelocatedSu;
            app.header.start_lba = rel->lba;
            app.header.end_lba = rel->lba + rel->nsectors;
            app.header.generation = gen_.get(layout_->zone_of(rel->lba));
            app.inline_data.assign(8, 0);
            app.payload = rel->cached;
            if (app.payload.empty()) {
                app.payload.assign(
                    static_cast<size_t>(rel->nsectors) * kSectorSize, 0);
            }
            md_->append(dev, MdZoneRole::kGeneral, std::move(app), true,
                        [](Status) {});
        }
        for (uint32_t z = 0; z < zones_.size(); ++z) {
            if (zone_rebuilt_[z] &&
                zones_[z].cond != raizn::ZoneState::kEmpty) {
                relog_tail_pp(dev, z);
            }
        }
    }

    // Throttled rebuild: rate-limit reconstruction traffic so degraded
    // foreground service keeps headroom. Baseline latency is the
    // foreground write EWMA observed before the rebuild load starts.
    throttle_.reset();
    if (lifecycle_.throttle.rate_sectors_per_sec > 0) {
        throttle_ = std::make_unique<RebuildThrottle>(
            loop_, lifecycle_.throttle);
        throttle_->set_baseline_latency(fg_write_ewma_ns_);
    }

    auto job = std::make_shared<RebuildJob>();
    job->dev = dev;
    job->progress = std::move(progress);
    job->done = std::move(done);
    if (trace_ != nullptr) {
        job->trace_req = trace_->next_request_id();
        job->total_token = trace_->begin_span(
            "rebuild.device", job->trace_req, obs::kTrackMetadata,
            loop_->now());
    }

    // Active (open/closed) zones first, then full zones; empty and
    // resume-verified zones need no work (§4.2).
    for (uint32_t z = 0; z < zones_.size(); ++z) {
        if (is_active(zones_[z].cond) && !zone_rebuilt_[z])
            job->zone_order.push_back(z);
    }
    for (uint32_t z = 0; z < zones_.size(); ++z) {
        if (zones_[z].cond == raizn::ZoneState::kFull && !zone_rebuilt_[z])
            job->zone_order.push_back(z);
    }

    // Kick off the per-zone pipeline. The pump reaches itself through
    // a weak_ptr; only pending completions and timers hold it, so a
    // rebuild abandoned by a power cut or teardown frees its job once
    // the loop drops those callbacks.
    using Pump = std::function<void(std::shared_ptr<RebuildJob>)>;
    auto pump = std::make_shared<Pump>();
    std::weak_ptr<Pump> weak_pump = pump;
    auto finished = std::make_shared<bool>(false);
    auto finish_job = [this, finished](std::shared_ptr<RebuildJob> job) {
        if (*finished)
            return;
        *finished = true;
        rebuilding_ = false;
        failed_dev_ = -1;
        throttle_.reset();
        // Relocations and burned ranges on the rebuilt device are
        // folded into the reconstructed data.
        std::vector<uint64_t> drop;
        for (const Relocation *rel : reloc_.all()) {
            if (rel->dev == job->dev)
                drop.push_back(rel->lba);
        }
        for (uint64_t lba : drop)
            reloc_.drop_zone(lba, lba + 1);
        for (uint32_t z = 0; z < zones_.size(); ++z)
            burned_.clear_dev_zone(job->dev, z);
        persist_rebuild_checkpoint(job->dev,
                                   RebuildCheckpointRecord::kDone, ~0u,
                                   /*wait=*/false);
        if (trace_ != nullptr && job->total_token != 0)
            trace_->end_span(job->total_token, loop_->now());
        auto done = std::move(job->done);
        done(job->status);
    };

    auto complete_zone = [this, weak_pump,
                          finish_job](std::shared_ptr<RebuildJob> job) {
        LZone &lz = zones_[job->zone];
        if (trace_ != nullptr && job->zone_token != 0) {
            trace_->end_span(job->zone_token, loop_->now());
            job->zone_token = 0;
        }
        // Re-log partial parity for the tail stripe if this device is
        // its parity holder (the old device's parity log is gone).
        relog_tail_pp(job->dev, job->zone);
        zone_rebuilt_[job->zone] = true;
        stats_.zones_rebuilt++;
        persist_rebuild_checkpoint(job->dev,
                                   RebuildCheckpointRecord::kInProgress,
                                   ~0u, /*wait=*/false);
        lz.blocked = false;
        drain_waiters(job->zone);
        if (job->progress)
            job->progress(job->zone_i + 1, job->zone_order.size());
        job->zone_i++;
        job->zone_active = false;
        (*weak_pump.lock())(job); // the running pump holds it
    };

    *pump = [this, weak_pump, complete_zone,
             finish_job](std::shared_ptr<RebuildJob> job) {
        std::shared_ptr<Pump> pump = weak_pump.lock();
        if (!job->zone_active) {
            if (job->zone_i >= job->zone_order.size()) {
                finish_job(job);
                return;
            }
            // Begin the next zone.
            job->zone = job->zone_order[job->zone_i];
            LZone &lz = zones_[job->zone];
            lz.blocked = true; // writes queue while this zone rebuilds
            job->fill = lz.wp - lz.start;
            job->nstripes =
                div_ceil(job->fill, layout_->stripe_sectors());
            job->next_issue = 0;
            job->next_write = 0;
            job->ready.clear();
            job->inflight_writes = 0;
            job->zone_active = true;
            if (trace_ != nullptr) {
                job->zone_token = trace_->begin_span(
                    "rebuild.zone", job->trace_req, obs::kTrackMetadata,
                    loop_->now());
            }
        }

        const uint32_t su = cfg_.su_sectors;
        const uint64_t ss = layout_->stripe_sectors();

        // Sectors this device holds in stripe s, given the zone fill.
        auto unit_len = [&](uint64_t s) -> uint64_t {
            int pos = layout_->data_pos_of_dev(job->zone, s, job->dev);
            if (pos < 0) // parity: present only for complete stripes
                return (s + 1) * ss <= job->fill ? su : 0;
            uint64_t start = s * ss + static_cast<uint64_t>(pos) * su;
            if (job->fill <= start)
                return 0;
            return std::min<uint64_t>(su, job->fill - start);
        };

        if (job->next_issue == 0 && job->next_write == 0) {
            // Zone start: find the last stripe this device contributes
            // to, so its write can carry FUA (persisting the zone).
            job->last_data_stripe = 0;
            for (uint64_t s = 0; s < job->nstripes; ++s) {
                if (unit_len(s) > 0)
                    job->last_data_stripe = s;
            }
        }

        // Issue reconstructions within the window, paced by the
        // throttle when one is configured.
        while (job->next_issue < job->nstripes &&
               job->next_issue < job->next_write + RebuildJob::kWindow) {
            uint64_t s = job->next_issue;
            uint64_t len = unit_len(s);
            if (len == 0) {
                job->next_issue++;
                job->ready[s] = {true, {}};
                continue;
            }
            if (throttle_ != nullptr && !throttle_->try_acquire(len)) {
                stats_.rebuild_throttle_stalls++;
                if (!job->throttle_armed) {
                    job->throttle_armed = true;
                    loop_->schedule_after(
                        throttle_->ns_until(len),
                        [pump, job, alive = alive_] {
                            if (!*alive)
                                return;
                            job->throttle_armed = false;
                            (*pump)(job);
                        });
                }
                break;
            }
            job->next_issue++;
            int pos = layout_->data_pos_of_dev(job->zone, s, job->dev);
            job->ready[s] = {false, {}};
            uint64_t rtok = trace_ != nullptr
                ? trace_->begin_span("rebuild.reconstruct",
                                     job->trace_req, obs::kTrackMetadata,
                                     loop_->now())
                : 0;
            reconstruct_stripe_unit(
                job->zone, s, pos, 0, len,
                [this, job, s, pump, rtok](Status st,
                                           std::vector<uint8_t> data) {
                    if (trace_ != nullptr && rtok != 0)
                        trace_->end_span(rtok, loop_->now());
                    if (!st.is_ok() && job->status.is_ok())
                        job->status = st;
                    job->ready[s] = {true, std::move(data)};
                    (*pump)(job);
                });
        }

        // Submit ready writes in strict stripe order (sequential zone).
        while (job->next_write < job->nstripes &&
               job->ready.count(job->next_write) &&
               job->ready[job->next_write].first) {
            uint64_t s = job->next_write++;
            auto content = std::move(job->ready[s].second);
            job->ready.erase(s);
            uint64_t len = unit_len(s);
            if (len == 0)
                continue;
            IoRequest req;
            req.op = IoOp::kWrite;
            req.cause = obs::Cause::kRebuild;
            req.slba = layout_->slot_pba(job->zone, s);
            req.nsectors = static_cast<uint32_t>(len);
            // The zone's final write is FUA: under the sequential zone
            // cache model it persists everything written before it, so
            // the checkpoint that follows never over-claims.
            req.fua = s == job->last_data_stripe;
            if (store_data_) {
                content.resize(static_cast<size_t>(len) * kSectorSize);
                req.data = std::move(content);
            }
            job->inflight_writes++;
            stats_.stripes_rebuilt++;
            // Target writes bypass dev_submit (no retry against a
            // fresh replacement), so the device-track span is explicit.
            uint64_t wtok = trace_ != nullptr
                ? trace_->begin_span("rebuild.write", job->trace_req,
                                     obs::kTrackDevBase + job->dev,
                                     loop_->now())
                : 0;
            devs_[job->dev]->submit(
                std::move(req), [this, job, pump, wtok](IoResult r) {
                    if (trace_ != nullptr && wtok != 0)
                        trace_->end_span(wtok, loop_->now());
                    if (!r.status.is_ok() && job->status.is_ok())
                        job->status = r.status;
                    job->inflight_writes--;
                    (*pump)(job);
                });
        }

        if (job->next_write >= job->nstripes &&
            job->inflight_writes == 0 && job->zone_active) {
            complete_zone(job);
        }
    };

    loop_->schedule_after(1, [pump, job] { (*pump)(job); });
}

} // namespace raizn
