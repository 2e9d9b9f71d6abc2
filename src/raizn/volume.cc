#include "raizn/volume_impl.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

#include "common/crc32.h"
#include "common/logging.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/prof/prof.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "sim/event_loop.h"
#include "zns/zns_device.h"

namespace raizn {

namespace {

/// Key for per-(zone, stripe) maps.
uint64_t
zs_key(uint32_t zone, uint64_t stripe)
{
    return (static_cast<uint64_t>(zone) << 32) | stripe;
}

uint64_t g_uuid_source = 0x5a4e5331; // deterministic array UUIDs

} // namespace

RaiznVolume::RaiznVolume(EventLoop *loop, std::vector<BlockDevice *> devs,
                         const RaiznConfig &cfg)
    : ZonedArray(loop, std::move(devs),
                 StatCells{&stats_.io_retries, &stats_.io_timeouts,
                           &stats_.dev_errors, &stats_.spares_promoted}),
      cfg_(cfg)
{
    layout_ = std::make_unique<Layout>(cfg_, devs_[0]->geometry());
    md_ = std::make_unique<MdManager>(loop_, layout_.get(), devs_);
    md_->set_snapshot_provider(
        [this](uint32_t dev, MdZoneRole role) {
            return snapshot_for_gc(dev, role);
        });
    gen_.reset(layout_->num_logical_zones());
    // Direct construction: LZone is move-only and the vector never
    // grows afterwards.
    zones_ = std::vector<LZone>(layout_->num_logical_zones());
    for (uint32_t z = 0; z < zones_.size(); ++z) {
        zones_[z].start = layout_->zone_start_lba(z);
        zones_[z].cap_end = zones_[z].start + layout_->logical_zone_cap();
        zones_[z].wp = zones_[z].start;
    }
    // The general and parity-log metadata zones on each device stay
    // open, and metadata GC transiently opens one more; expose the rest.
    uint32_t dev_open = devs_[0]->geometry().max_open_zones;
    max_open_zones_ = dev_open > 3 ? dev_open - 3 : 1;
    // Timing-only arrays skip data-plane byte handling everywhere.
    store_data_ = true;
    for (BlockDevice *d : devs_)
        store_data_ &= d->data_mode() == DataMode::kStore;

    md_->set_retrier(retrier_.get());
}

RaiznVolume::~RaiznVolume()
{
    scrub_running_ = false;
}

void
RaiznVolume::on_resilience_changed()
{
    md_->set_retrier(retrier_.get());
}

void
RaiznVolume::link_stats_hook(obs::MetricsRegistry &reg)
{
    obs::link_stats(reg, "raizn", stats_);
}

size_t
RaiznVolume::open_stripe_buffers() const
{
    size_t n = 0;
    for (const LZone &z : zones_)
        n += z.buffers.size();
    return n;
}

size_t
RaiznVolume::pp_backlog() const
{
    size_t n = 0;
    for (const auto &[key, records] : pp_index_)
        n += records.size();
    return n;
}

size_t
RaiznVolume::reloc_backlog() const
{
    return reloc_.size() + parity_reloc_.size();
}

void
RaiznVolume::install_timeline(obs::Timeline *tl)
{
    if (tl == nullptr || reg_ == nullptr)
        return;
    obs::Gauge *buffers = reg_->gauge("raizn.gauge.stripe_buffers");
    obs::Gauge *pp = reg_->gauge("raizn.gauge.pp_records");
    obs::Gauge *reloc = reg_->gauge("raizn.gauge.reloc_entries");
    obs::Gauge *open_zones = reg_->gauge("raizn.gauge.open_zones");
    std::vector<std::array<obs::Gauge *, 4>> census;
    for (uint32_t d = 0; d < devs_.size(); ++d) {
        std::string prefix = strprintf("zns.dev%u", d);
        census.push_back({reg_->gauge(prefix + ".zones_empty"),
                          reg_->gauge(prefix + ".zones_open"),
                          reg_->gauge(prefix + ".zones_closed"),
                          reg_->gauge(prefix + ".zones_full")});
    }
    tl->add_probe([this, buffers, pp, reloc, open_zones,
                   census = std::move(census)] {
        buffers->set(open_stripe_buffers());
        pp->set(pp_backlog());
        reloc->set(reloc_backlog());
        open_zones->set(open_zones_);
        // Re-resolve each sample: promote_spare can swap device
        // pointers mid-run, and a member may be a decorator that is
        // not a ZnsDevice (census gauges then stay at their last
        // value).
        for (uint32_t d = 0; d < devs_.size(); ++d) {
            auto *zd = dynamic_cast<ZnsDevice *>(devs_[d]);
            if (zd == nullptr)
                continue;
            ZnsDevice::ZoneCensus c = zd->zone_census();
            census[d][0]->set(c.empty);
            census[d][1]->set(c.open);
            census[d][2]->set(c.closed);
            census[d][3]->set(c.full);
        }
    });
}

void
RaiznVolume::note_written_crcs(uint32_t zone, uint64_t off,
                               const std::vector<uint8_t> &data,
                               uint32_t nsectors)
{
    if (!store_data_)
        return;
    LZone &lz = zones_[zone];
    if (lz.crcs.empty()) {
        lz.crcs.assign(layout_->logical_zone_cap(), 0);
        lz.crc_valid.assign(layout_->logical_zone_cap(), false);
    }
    for (uint32_t i = 0; i < nsectors; ++i) {
        if (data.empty()) {
            lz.crc_valid[off + i] = false;
            continue;
        }
        lz.crcs[off + i] = crc32c(
            data.data() + static_cast<size_t>(i) * kSectorSize,
            kSectorSize);
        lz.crc_valid[off + i] = true;
    }
}

bool
RaiznVolume::crc_range_ok(uint64_t lba, const uint8_t *bytes,
                          uint32_t nsectors) const
{
    if (!store_data_ || bytes == nullptr)
        return true;
    uint32_t zone = layout_->zone_of(lba);
    const LZone &lz = zones_[zone];
    if (lz.crc_valid.empty())
        return true;
    uint64_t off = lba - lz.start;
    for (uint32_t i = 0; i < nsectors; ++i) {
        if (off + i >= lz.crc_valid.size() || !lz.crc_valid[off + i])
            continue;
        if (crc32c(bytes + static_cast<size_t>(i) * kSectorSize,
                   kSectorSize) != lz.crcs[off + i]) {
            return false;
        }
    }
    return true;
}

std::string
VolumeStats::dump() const
{
    return obs::render_stats(*this);
}

IoResult
RaiznVolume::dev_sync(uint32_t dev, IoRequest req)
{
    return submit_sync(*loop_, *devs_[dev], std::move(req));
}

bool
RaiznVolume::dev_unavailable(uint32_t dev, uint32_t zone) const
{
    if (devs_[dev]->failed())
        return true;
    if (static_cast<int>(dev) != failed_dev_)
        return false;
    // Marked failed but replaced: zones already rebuilt are usable.
    return !(rebuilding_ && zone < zone_rebuilt_.size() &&
             zone_rebuilt_[zone]);
}

Result<std::unique_ptr<RaiznVolume>>
RaiznVolume::create(EventLoop *loop, std::vector<BlockDevice *> devs,
                    const RaiznConfig &cfg)
{
    if (!cfg.valid() || devs.size() != cfg.num_devices)
        return Status(StatusCode::kInvalidArgument, "bad array config");
    const DeviceGeometry &g0 = devs[0]->geometry();
    if (!g0.zoned)
        return Status(StatusCode::kInvalidArgument, "devices must be ZNS");
    for (BlockDevice *d : devs) {
        const DeviceGeometry &g = d->geometry();
        if (!g.zoned || g.zone_size != g0.zone_size ||
            g.zone_capacity != g0.zone_capacity ||
            g.nzones != g0.nzones) {
            return Status(StatusCode::kInvalidArgument,
                          "device geometries differ");
        }
    }
    if (g0.zone_capacity % cfg.su_sectors != 0) {
        return Status(StatusCode::kInvalidArgument,
                      "zone capacity not a multiple of the stripe unit");
    }

    auto vol = std::unique_ptr<RaiznVolume>(
        new RaiznVolume(loop, std::move(devs), cfg));
    Status st = vol->md_->format();
    if (!st)
        return st;
    vol->sb_.array_uuid = ++g_uuid_source;
    vol->sb_.from_config(cfg);
    vol->sb_.seq = 1;
    st = vol->persist_superblocks();
    if (!st)
        return st;
    return vol;
}

Status
RaiznVolume::persist_superblocks()
{
    sb_.seq++;
    uint32_t pending = 0;
    Status first;
    for (uint32_t d = 0; d < devs_.size(); ++d) {
        if (devs_[d]->failed())
            continue;
        Superblock copy = sb_;
        copy.dev_id = d;
        MdAppend app;
        app.header.type = MdType::kSuperblock;
        app.inline_data = copy.encode();
        pending++;
        md_->append(d, MdZoneRole::kGeneral, std::move(app),
                    /*durable=*/true, [&](Status s) {
                        if (!s.is_ok() && first.is_ok())
                            first = s;
                        pending--;
                    });
    }
    loop_->run_until_pred([&] { return pending == 0; });
    return first;
}

Result<ZoneInfo>
RaiznVolume::zone_info(uint32_t zone) const
{
    if (zone >= zones_.size())
        return Status(StatusCode::kInvalidArgument, "zone out of range");
    const LZone &lz = zones_[zone];
    ZoneInfo info;
    info.start = lz.start;
    info.capacity = layout_->logical_zone_cap();
    info.wp = lz.wp;
    info.state = lz.cond;
    return info;
}

// ---- Stripe buffers ---------------------------------------------------

StripeBuffer *
RaiznVolume::get_buffer(uint32_t zone, uint64_t stripe)
{
    LZone &lz = zones_[zone];
    if (lz.buffers.empty()) {
        for (uint32_t i = 0; i < cfg_.stripe_buffers_per_zone; ++i) {
            lz.buffers.push_back(std::make_unique<StripeBuffer>(
                cfg_.data_units(), cfg_.su_sectors, !store_data_));
        }
    }
    StripeBuffer *buf =
        lz.buffers[stripe % cfg_.stripe_buffers_per_zone].get();
    if (buf->stripe_no() != stripe) {
        if (buf->bound())
            stats_.stripe_buffer_recycles++;
        buf->assign(stripe);
    }
    return buf;
}

void
RaiznVolume::open_zone_state(uint32_t zone)
{
    LZone &lz = zones_[zone];
    if (lz.cond == raizn::ZoneState::kEmpty ||
        lz.cond == raizn::ZoneState::kClosed) {
        if (lz.cond == raizn::ZoneState::kEmpty) {
            lz.pbm.reset(layout_->logical_zone_cap() / cfg_.su_sectors,
                         cfg_.su_sectors);
        }
        lz.cond = raizn::ZoneState::kImplicitOpen;
        open_zones_++;
    }
}

void
RaiznVolume::drain_waiters(uint32_t zone)
{
    LZone &lz = zones_[zone];
    while (!lz.blocked && !lz.waiters.empty()) {
        auto fn = std::move(lz.waiters.front());
        lz.waiters.pop_front();
        fn();
    }
}

// ---- Write path -------------------------------------------------------

void
RaiznVolume::write(uint64_t lba, std::vector<uint8_t> data,
                   WriteFlags flags, IoCallback cb)
{
    uint32_t nsectors = static_cast<uint32_t>(data.size() / kSectorSize);
    write_internal(lba, std::move(data), nsectors, flags, std::move(cb));
}

void
RaiznVolume::write_internal(uint64_t lba, std::vector<uint8_t> data,
                            uint32_t nsectors, WriteFlags flags,
                            IoCallback cb)
{
    auto fail = [&](StatusCode code, const char *msg) {
        IoResult r;
        r.status = Status(code, msg);
        loop_->schedule_after(1,
                              [cb = std::move(cb), r = std::move(r)]() mutable {
                                  cb(std::move(r));
                              });
    };
    if (read_only_)
        return fail(StatusCode::kReadOnly, "volume is read-only");
    if (nsectors == 0 || lba + nsectors > capacity())
        return fail(StatusCode::kInvalidArgument, "write out of range");
    uint32_t zone = layout_->zone_of(lba);
    LZone &lz = zones_[zone];
    if (lz.blocked) {
        // Zone reset in flight: queue behind it (§5.2).
        lz.waiters.push_back([this, lba, data = std::move(data), nsectors,
                              flags, cb = std::move(cb)]() mutable {
            write_internal(lba, std::move(data), nsectors, flags,
                           std::move(cb));
        });
        return;
    }
    if (lz.cond == raizn::ZoneState::kFull)
        return fail(StatusCode::kNoSpace, "zone full");
    if (lba != lz.wp)
        return fail(StatusCode::kWritePointerMismatch,
                    "write not at zone write pointer");
    if (lba + nsectors > lz.cap_end)
        return fail(StatusCode::kZoneBoundary,
                    "write crosses zone capacity");
    if (lz.cond == raizn::ZoneState::kEmpty &&
        open_zones_ >= max_open_zones_) {
        return fail(StatusCode::kTooManyOpenZones,
                    "logical open zone limit");
    }

    if (flags.preflush) {
        // Persist all prior data on every device before this write.
        flush([this, lba, data = std::move(data), nsectors, flags,
               cb = std::move(cb)](IoResult r) mutable {
            if (!r.status.is_ok()) {
                cb(std::move(r));
                return;
            }
            WriteFlags f2 = flags;
            f2.preflush = false;
            process_write(lba, std::move(data), nsectors, f2,
                          std::move(cb));
        });
        return;
    }
    process_write(lba, std::move(data), nsectors, flags, std::move(cb));
}

void
RaiznVolume::process_write(uint64_t lba, std::vector<uint8_t> data,
                           uint32_t nsectors, WriteFlags flags,
                           IoCallback cb)
{
    PROF_SCOPE("raizn.write");
    uint32_t zone = layout_->zone_of(lba);
    LZone &lz = zones_[zone];
    open_zone_state(zone);
    lz.wp = lba + nsectors;

    stats_.logical_writes++;
    stats_.sectors_written += nsectors;
    if (flags.fua)
        stats_.fua_writes++;
    note_written_crcs(zone, lba - lz.start, data, nsectors);

    auto ctx = std::make_shared<WriteCtx>();
    ctx->flags = flags;
    ctx->zone = zone;
    ctx->end_lba = lba + nsectors;
    ctx->nsectors = nsectors;
    ctx->cb = std::move(cb);
    ctx->start_tick = loop_->now();
    if (trace_ != nullptr) {
        ctx->req_id = trace_->next_request_id();
        ctx->total_token = trace_->begin_span(
            "raizn.write", ctx->req_id, obs::kTrackRequest, loop_->now());
    }

    const uint64_t ss = layout_->stripe_sectors();
    const uint32_t su = cfg_.su_sectors;
    uint64_t off = lba - lz.start; // zone offset of write start
    uint64_t end = off + nsectors;
    uint64_t cur = off;

    while (cur < end) {
        uint64_t stripe = cur / ss;
        uint64_t stripe_lo = stripe * ss;
        uint64_t chunk_end = std::min<uint64_t>(end, stripe_lo + ss);
        StripeBuffer *buf = get_buffer(zone, stripe);
        const uint8_t *src = data.empty()
            ? nullptr
            : data.data() + (cur - off) * kSectorSize;
        buf->fill(cur - stripe_lo, src, chunk_end - cur);

        // Data sub-IOs, one per touched stripe unit.
        uint64_t piece = cur;
        while (piece < chunk_end) {
            uint64_t in_stripe = piece - stripe_lo;
            uint32_t k = static_cast<uint32_t>(in_stripe / su);
            uint64_t in_su = in_stripe % su;
            uint64_t piece_end =
                std::min<uint64_t>(chunk_end,
                                   stripe_lo + (k + 1ull) * su);
            uint32_t len = static_cast<uint32_t>(piece_end - piece);
            uint32_t dev = layout_->data_dev(zone, stripe, k);
            uint64_t pba = layout_->slot_pba(zone, stripe) + in_su;
            std::vector<uint8_t> bytes;
            if (!data.empty()) {
                const uint8_t *p = data.data() + (piece - off) * kSectorSize;
                prof::count_alloc(static_cast<uint64_t>(len) * kSectorSize);
                prof::count_copy(static_cast<uint64_t>(len) * kSectorSize);
                bytes.assign(p, p + static_cast<size_t>(len) * kSectorSize);
            }
            submit_data_subio(dev, zone, pba, std::move(bytes), len,
                              lz.start + piece, flags.fua, ctx);
            piece = piece_end;
        }

        if (buf->complete()) {
            // Full stripe: write final parity to the data zone.
            submit_parity_subio(zone, stripe, buf->full_parity(),
                                flags.fua, ctx);
            pp_index_.erase(zs_key(zone, stripe));
        } else {
            // Partial stripe: log the parity delta for exactly the
            // range this write affected (§5.1).
            uint64_t lo_sector, hi_sector;
            std::vector<uint8_t> delta = buf->parity_delta(
                cur - stripe_lo, chunk_end - stripe_lo, &lo_sector,
                &hi_sector);
            log_partial_parity(zone, stripe, lz.start + cur,
                               lz.start + chunk_end, std::move(delta),
                               lo_sector, ctx);
        }
        cur = chunk_end;
    }

    if (lz.wp == lz.cap_end) {
        lz.cond = raizn::ZoneState::kFull;
        open_zones_--;
        // Stripe buffers belong to open zones only (§5.1); the final
        // parity is already captured in the sub-IOs above.
        lz.buffers.clear();
    }

    ctx->issued_all = true;
    if (ctx->pending == 0)
        finish_write(ctx);
}

void
RaiznVolume::submit_data_subio(uint32_t dev, uint32_t zone, uint64_t pba,
                               std::vector<uint8_t> data, uint32_t nsectors,
                               uint64_t lba, bool fua,
                               std::shared_ptr<WriteCtx> ctx)
{
    if (dev_unavailable(dev, zone)) {
        // Degraded write: the stripe unit is simply omitted (§4.2).
        return;
    }
    if (pba < burned_.burned_end(dev, zone)) {
        // The arithmetic PBA holds stale pre-crash data that cannot be
        // overwritten: redirect to the metadata zone (§5.2, Fig. 1).
        relocate_write(dev, zone, lba, std::move(data), nsectors, ctx);
        return;
    }
    ctx->pending++;
    IoRequest req;
    req.op = IoOp::kWrite;
    req.slba = pba;
    req.nsectors = nsectors;
    req.fua = fua;
    req.data = std::move(data);
    req.trace_req = ctx->req_id;
    req.trace_stage = "write.data";
    req.cause = ctx->flags.origin;
    dev_submit(dev, std::move(req),
               [this, ctx, dev](IoResult r) {
                   if (!r.status.is_ok() &&
                       escalate_dev_error(dev, r.status)) {
                       // Degraded write: the device is failed, the
                       // stripe unit is omitted (§4.2).
                       subio_done(ctx, Status::ok());
                       return;
                   }
                   subio_done(ctx, r.status);
               });
}

void
RaiznVolume::submit_parity_subio(uint32_t zone, uint64_t stripe,
                                 std::vector<uint8_t> parity, bool fua,
                                 std::shared_ptr<WriteCtx> ctx)
{
    uint32_t dev = layout_->parity_dev(zone, stripe);
    uint64_t pba = layout_->slot_pba(zone, stripe);
    stats_.full_parity_writes++;
    if (dev_unavailable(dev, zone))
        return;
    if (pba < burned_.burned_end(dev, zone)) {
        // Parity slot burned: keep the parity in the metadata zone.
        ctx->pending++;
        MdAppend app;
        app.header.type = MdType::kRelocatedSu;
        app.header.start_lba = zs_key(zone, stripe); // parity key
        app.header.end_lba = app.header.start_lba;
        app.header.generation = gen_.get(zone);
        app.inline_data.assign(8, 0);
        app.inline_data[4] = 1; // parity marker
        if (!store_data_)
            parity.clear();
        std::vector<uint8_t> payload = parity;
        if (payload.empty()) {
            payload.assign(
                static_cast<size_t>(cfg_.su_sectors) * kSectorSize, 0);
        }
        Relocation rel;
        rel.lba = app.header.start_lba;
        rel.nsectors = cfg_.su_sectors;
        rel.dev = dev;
        rel.md_pba = 0; // set by reloc_placed
        rel.cached = std::move(parity);
        parity_reloc_[zs_key(zone, stripe)] = std::move(rel);
        app.payload = std::move(payload);
        uint64_t tok = trace_ != nullptr
            ? trace_->begin_span("write.parity_reloc", ctx->req_id,
                                 obs::kTrackMetadata, loop_->now())
            : 0;
        md_->append(dev, MdZoneRole::kGeneral, std::move(app), false,
                    [this, ctx, tok](Status s) {
                        if (trace_ != nullptr && tok != 0)
                            trace_->end_span(tok, loop_->now());
                        subio_done(ctx, s);
                    },
                    reloc_placed(zs_key(zone, stripe), dev, true));
        stats_.relocated_writes++;
        return;
    }
    if (!store_data_)
        parity.clear();
    ctx->pending++;
    IoRequest req;
    req.op = IoOp::kWrite;
    req.slba = pba;
    req.nsectors = cfg_.su_sectors;
    req.fua = fua;
    req.data = std::move(parity);
    req.trace_req = ctx->req_id;
    req.trace_stage = "write.parity";
    req.cause = obs::Cause::kParity;
    dev_submit(dev, std::move(req),
               [this, ctx, dev](IoResult r) {
                   if (!r.status.is_ok() &&
                       escalate_dev_error(dev, r.status)) {
                       subio_done(ctx, Status::ok());
                       return;
                   }
                   subio_done(ctx, r.status);
               });
}

MdAppend
RaiznVolume::make_pp_append(uint32_t zone, uint64_t stripe,
                            uint64_t start_lba, uint64_t end_lba,
                            uint64_t lo_sector,
                            std::vector<uint8_t> delta) const
{
    (void)stripe;
    MdAppend app;
    app.header.type = MdType::kPartialParity;
    app.header.start_lba = start_lba;
    app.header.end_lba = end_lba;
    app.header.generation = gen_.get(zone);
    app.inline_data.assign(12, 0);
    uint32_t lo32 = static_cast<uint32_t>(lo_sector);
    std::memcpy(app.inline_data.data() + 4, &lo32, 4);
    app.payload = std::move(delta);
    return app;
}

void
RaiznVolume::log_partial_parity(uint32_t zone, uint64_t stripe,
                                uint64_t start_lba, uint64_t end_lba,
                                std::vector<uint8_t> delta,
                                uint64_t lo_sector,
                                std::shared_ptr<WriteCtx> ctx)
{
    PROF_SCOPE("raizn.pp_log");
    stats_.partial_parity_logs++;
    stats_.partial_parity_sectors += delta.size() / kSectorSize;

    // Remember the delta in memory for degraded reconstruction of the
    // incomplete stripe.
    PpRecord rec;
    rec.start_lba = start_lba;
    rec.end_lba = end_lba;
    rec.lo_sector = lo_sector;
    if (store_data_)
        rec.delta = delta;
    pp_index_[zs_key(zone, stripe)].push_back(std::move(rec));

    if (debug_fault_ == DebugFault::kSkipPartialParityLog)
        return; // deliberate bug: in-memory index only, nothing durable

    uint32_t dev = layout_->parity_dev(zone, stripe);
    if (dev_unavailable(dev, zone))
        return; // degraded: partial parity is omitted with its device
    ctx->pending++;
    MdAppend app = make_pp_append(zone, stripe, start_lba, end_lba,
                                  lo_sector, std::move(delta));
    uint64_t tok = trace_ != nullptr
        ? trace_->begin_span("write.pp_log", ctx->req_id,
                             obs::kTrackMetadata, loop_->now())
        : 0;
    md_->append(dev, MdZoneRole::kParityLog, std::move(app),
                /*durable=*/ctx->flags.fua,
                [this, ctx, tok](Status s) {
                    if (trace_ != nullptr && tok != 0)
                        trace_->end_span(tok, loop_->now());
                    subio_done(ctx, s);
                });
}

void
RaiznVolume::relocate_write(uint32_t dev, uint32_t zone, uint64_t lba,
                            std::vector<uint8_t> data, uint32_t nsectors,
                            std::shared_ptr<WriteCtx> ctx)
{
    PROF_SCOPE("raizn.reloc");
    stats_.relocated_writes++;
    zones_[zone].has_reloc = true;
    ctx->pending++;

    MdAppend app;
    app.header.type = MdType::kRelocatedSu;
    app.header.start_lba = lba;
    app.header.end_lba = lba + nsectors;
    app.header.generation = gen_.get(zone);
    app.inline_data.assign(8, 0);
    std::vector<uint8_t> payload = data;
    if (payload.empty()) {
        payload.assign(static_cast<size_t>(nsectors) * kSectorSize, 0);
    }
    app.payload = std::move(payload);

    Relocation rel;
    rel.lba = lba;
    rel.nsectors = nsectors;
    rel.dev = dev;
    rel.md_pba = 0; // set by reloc_placed
    rel.cached = std::move(data); // relocations are cached (§5.2)
    reloc_.insert(std::move(rel));

    uint64_t tok = trace_ != nullptr
        ? trace_->begin_span("write.reloc", ctx->req_id,
                             obs::kTrackMetadata, loop_->now())
        : 0;
    md_->append(dev, MdZoneRole::kGeneral, std::move(app),
                /*durable=*/ctx->flags.fua,
                [this, ctx, tok](Status s) {
                    if (trace_ != nullptr && tok != 0)
                        trace_->end_span(tok, loop_->now());
                    subio_done(ctx, s);
                },
                reloc_placed(lba, dev, false));
}

PlacedCb
RaiznVolume::reloc_placed(uint64_t lba, uint32_t dev, bool parity)
{
    return [this, lba, dev, parity](uint64_t pba) {
        // Appends of one log are placed in order, so the last one
        // placed for a key is also the relocation the map holds.
        if (!parity) {
            reloc_.set_md_pba(lba, dev, pba + 1);
            return;
        }
        auto it = parity_reloc_.find(lba);
        if (it != parity_reloc_.end() && it->second.dev == dev)
            it->second.md_pba = pba + 1;
    };
}

void
RaiznVolume::subio_done(std::shared_ptr<WriteCtx> ctx, Status status)
{
    if (!status.is_ok() && ctx->status.is_ok())
        ctx->status = status;
    assert(ctx->pending > 0);
    ctx->pending--;
    if (ctx->pending == 0 && ctx->issued_all)
        finish_write(ctx);
}

void
RaiznVolume::finish_write(std::shared_ptr<WriteCtx> ctx)
{
    if (ctx->in_flush_phase || !ctx->flags.fua || !ctx->status.is_ok()) {
        IoResult r;
        r.status = ctx->status;
        r.lba = ctx->end_lba;
        if (ctx->flags.fua && ctx->status.is_ok()) {
            zones_[ctx->zone].pbm.mark_persisted_upto(
                ctx->end_lba - zones_[ctx->zone].start);
        }
        if (trace_ != nullptr && ctx->total_token != 0) {
            trace_->end_span(ctx->total_token, loop_->now());
            ctx->total_token = 0;
        }
        uint64_t elapsed = loop_->now() - ctx->start_tick;
        if (write_lat_ != nullptr)
            write_lat_->record(elapsed);
        if (ledger_ != nullptr && ctx->status.is_ok() &&
            ctx->flags.origin == obs::Cause::kUserData)
            ledger_->note_user_write(ctx->nsectors);
        // Foreground write latency EWMA: the adaptive rebuild throttle
        // compares this against the pre-rebuild baseline.
        fg_write_ewma_ns_ = fg_write_ewma_ns_ == 0.0
            ? static_cast<double>(elapsed)
            : 0.2 * static_cast<double>(elapsed) + 0.8 * fg_write_ewma_ns_;
        if (throttle_ != nullptr && rebuilding_)
            throttle_->observe_foreground_latency(elapsed);
        auto cb = std::move(ctx->cb);
        cb(std::move(r));
        return;
    }
    start_fua_flush_phase(ctx);
}

void
RaiznVolume::start_fua_flush_phase(std::shared_ptr<WriteCtx> ctx)
{
    // FUA: every LBA preceding this write in the zone must be durable
    // before completion is reported (§5.3, Fig. 6). Find the devices
    // still holding non-persisted stripe units.
    ctx->in_flush_phase = true;
    LZone &lz = zones_[ctx->zone];
    uint64_t end_off = ctx->end_lba - lz.start;
    uint64_t end_units = div_ceil(end_off, cfg_.su_sectors);
    uint64_t first = lz.pbm.persisted_prefix_units();
    if (first >= end_units) {
        finish_write(ctx); // everything already durable
        return;
    }
    std::vector<bool> need(devs_.size(), false);
    const uint32_t D = cfg_.data_units();
    for (uint64_t u = first; u < end_units; ++u) {
        if (lz.pbm.unit_persisted(u))
            continue;
        uint64_t stripe = u / D;
        uint32_t k = static_cast<uint32_t>(u % D);
        need[layout_->data_dev(ctx->zone, stripe, k)] = true;
        // The stripe's parity (or partial parity log) lives on the
        // parity device; flush it too.
        need[layout_->parity_dev(ctx->zone, stripe)] = true;
    }
    for (uint32_t d = 0; d < devs_.size(); ++d) {
        if (!need[d] || static_cast<int>(d) == failed_dev_ ||
            devs_[d]->failed()) {
            continue;
        }
        ctx->pending++;
        stats_.fua_dependency_flushes++;
        IoRequest freq = IoRequest::flush();
        freq.trace_req = ctx->req_id;
        freq.trace_stage = "write.fua_flush";
        freq.cause = ctx->flags.origin;
        dev_submit(d, std::move(freq),
                   [this, ctx, d](IoResult r) {
                       if (!r.status.is_ok() &&
                           escalate_dev_error(d, r.status)) {
                           subio_done(ctx, Status::ok());
                           return;
                       }
                       subio_done(ctx, r.status);
                   });
    }
    if (ctx->pending == 0)
        finish_write(ctx);
}

void
RaiznVolume::flush(IoCallback cb)
{
    PROF_SCOPE("raizn.flush");
    stats_.flushes++;
    // Duplicate the flush to every array device (§5.3).
    auto pending = std::make_shared<uint32_t>(0);
    auto first = std::make_shared<Status>();
    // Snapshot write pointers: everything submitted before the flush
    // becomes durable at its completion.
    auto wps = std::make_shared<std::vector<uint64_t>>();
    for (const LZone &lz : zones_)
        wps->push_back(lz.wp - lz.start);
    auto done = [this, pending, first, wps,
                 cb = std::move(cb)](IoResult r) {
        if (!r.status.is_ok() && first->is_ok())
            *first = r.status;
        if (--*pending > 0)
            return;
        for (uint32_t z = 0; z < zones_.size(); ++z) {
            if ((*wps)[z] > 0)
                zones_[z].pbm.mark_persisted_upto((*wps)[z]);
        }
        IoResult out;
        out.status = *first;
        cb(std::move(out));
    };
    for (uint32_t d = 0; d < devs_.size(); ++d) {
        if (static_cast<int>(d) == failed_dev_ || devs_[d]->failed())
            continue;
        (*pending)++;
        IoRequest freq = IoRequest::flush();
        freq.cause = obs::Cause::kUserData;
        dev_submit(d, std::move(freq),
                   [this, done, d](IoResult r) mutable {
                       if (!r.status.is_ok() &&
                           escalate_dev_error(d, r.status)) {
                           r.status = Status::ok();
                       }
                       done(std::move(r));
                   });
    }
    if (*pending == 0) {
        // No live devices.
        (*pending)++;
        IoResult r;
        r.status = Status(StatusCode::kOffline, "no devices");
        loop_->schedule_after(1, [done, r]() mutable {
            done(std::move(r));
        });
    }
}

// ---- Zone management --------------------------------------------------

void
RaiznVolume::reset_zone(uint32_t zone, IoCallback cb)
{
    if (zone >= zones_.size()) {
        IoResult r;
        r.status = Status(StatusCode::kInvalidArgument, "bad zone");
        loop_->schedule_after(1, [cb = std::move(cb), r]() mutable {
            cb(std::move(r));
        });
        return;
    }
    LZone &lz = zones_[zone];
    if (lz.blocked) {
        lz.waiters.push_back([this, zone, cb = std::move(cb)]() mutable {
            reset_zone(zone, std::move(cb));
        });
        return;
    }
    if (lz.cond == raizn::ZoneState::kEmpty) {
        IoResult r;
        loop_->schedule_after(1, [cb = std::move(cb), r]() mutable {
            cb(std::move(r));
        });
        return;
    }
    stats_.zone_resets++;
    // Block all IO to the zone until every physical zone is reset
    // (§5.2). The reset pointer is the logical wp at receipt.
    lz.blocked = true;

    // 1. Log the reset intent durably on two devices: the one holding
    //    the zone's first stripe unit and the one holding the first
    //    stripe's parity (rotated per zone by the layout).
    uint32_t dev_a = layout_->data_dev(zone, 0, 0);
    uint32_t dev_b = layout_->parity_dev(zone, 0);
    auto wal_pending = std::make_shared<uint32_t>(0);
    auto do_resets = [this, zone, cb = std::move(cb)]() mutable {
        // 2. Reset every physical zone.
        auto pending = std::make_shared<uint32_t>(0);
        auto first = std::make_shared<Status>();
        auto on_reset = [this, zone, pending, first,
                         cb = std::move(cb)](IoResult r) mutable {
            if (!r.status.is_ok() && first->is_ok())
                *first = r.status;
            if (--*pending > 0)
                return;
            // 3. All physical zones reset: bump and persist the
            //    generation counter, clear in-memory state, unblock.
            LZone &lz = zones_[zone];
            gen_.increment(zone);
            persist_gen_block(gen_.block_of(zone));
            if (is_open(lz.cond))
                open_zones_--;
            lz.cond = raizn::ZoneState::kEmpty;
            lz.wp = lz.start;
            lz.pbm.clear();
            lz.crcs.clear();
            lz.crc_valid.clear();
            lz.buffers.clear();
            lz.has_reloc = false;
            reloc_.drop_zone(lz.start, lz.cap_end);
            burned_.clear_zone(static_cast<uint32_t>(devs_.size()), zone);
            auto it = pp_index_.lower_bound(zs_key(zone, 0));
            while (it != pp_index_.end() &&
                   it->first < zs_key(zone + 1, 0)) {
                it = pp_index_.erase(it);
            }
            auto pit = parity_reloc_.begin();
            while (pit != parity_reloc_.end()) {
                if ((pit->first >> 32) == zone)
                    pit = parity_reloc_.erase(pit);
                else
                    ++pit;
            }
            lz.blocked = false;
            drain_waiters(zone);
            IoResult out;
            out.status = *first;
            cb(std::move(out));
        };
        uint64_t phys_zone_start =
            static_cast<uint64_t>(zone) * layout_->phys_zone_size();
        for (uint32_t d = 0; d < devs_.size(); ++d) {
            if (static_cast<int>(d) == failed_dev_ || devs_[d]->failed())
                continue;
            (*pending)++;
            IoRequest rst = IoRequest::zone_reset(phys_zone_start);
            rst.cause = obs::Cause::kZoneMgmt;
            dev_submit(d, std::move(rst),
                       [this, on_reset, d](IoResult r) mutable {
                           if (!r.status.is_ok() &&
                               escalate_dev_error(d, r.status)) {
                               r.status = Status::ok();
                           }
                           on_reset(std::move(r));
                       });
        }
        if (*pending == 0) {
            IoResult r;
            r.status = Status(StatusCode::kOffline, "no devices");
            cb(std::move(r));
        }
    };

    auto on_wal = std::make_shared<std::function<void(Status)>>();
    *wal_pending = 0;
    std::vector<uint32_t> wal_devs;
    wal_devs.push_back(dev_a);
    if (dev_b != dev_a)
        wal_devs.push_back(dev_b);
    auto do_resets_shared =
        std::make_shared<std::function<void()>>(std::move(do_resets));
    *on_wal = [wal_pending, do_resets_shared](Status s) {
        if (!s.is_ok())
            LOG_WARN("reset WAL write failed: %s", s.to_string().c_str());
        if (--*wal_pending == 0)
            (*do_resets_shared)();
    };
    for (uint32_t d : wal_devs) {
        if (static_cast<int>(d) == failed_dev_ || devs_[d]->failed())
            continue;
        (*wal_pending)++;
    }
    if (*wal_pending == 0) {
        (*do_resets_shared)();
        return;
    }
    for (uint32_t d : wal_devs) {
        if (static_cast<int>(d) == failed_dev_ || devs_[d]->failed())
            continue;
        MdAppend app;
        app.header.type = MdType::kZoneResetLog;
        app.header.start_lba = zones_[zone].start;
        app.header.end_lba = zones_[zone].cap_end;
        app.header.generation = gen_.get(zone);
        app.inline_data = encode_zone_reset({zone});
        md_->append(d, MdZoneRole::kGeneral, std::move(app),
                    /*durable=*/true, *on_wal);
    }
}

void
RaiznVolume::persist_gen_block(uint32_t block)
{
    uint64_t seq = gen_update_seq_++;
    for (uint32_t d = 0; d < devs_.size(); ++d) {
        if (static_cast<int>(d) == failed_dev_ || devs_[d]->failed())
            continue;
        MdAppend app;
        app.header = gen_.block_header(block, seq);
        app.inline_data = gen_.encode_block(block);
        md_->append(d, MdZoneRole::kGeneral, std::move(app), false,
                    [](Status s) {
                        if (!s.is_ok()) {
                            LOG_WARN("gen counter persist failed: %s",
                                     s.to_string().c_str());
                        }
                    });
    }
}

void
RaiznVolume::finish_zone(uint32_t zone, IoCallback cb)
{
    LZone &lz = zones_[zone];
    if (lz.blocked) {
        lz.waiters.push_back([this, zone, cb = std::move(cb)]() mutable {
            finish_zone(zone, std::move(cb));
        });
        return;
    }
    auto pending = std::make_shared<uint32_t>(0);
    auto first = std::make_shared<Status>();
    auto done = [this, zone, pending, first,
                 cb = std::move(cb)](IoResult r) mutable {
        if (!r.status.is_ok() && first->is_ok())
            *first = r.status;
        if (--*pending > 0)
            return;
        LZone &lz = zones_[zone];
        if (is_open(lz.cond))
            open_zones_--;
        lz.cond = raizn::ZoneState::kFull;
        lz.pbm.mark_persisted_upto(lz.wp - lz.start);
        lz.wp = lz.cap_end;
        lz.buffers.clear();
        IoResult out;
        out.status = *first;
        cb(std::move(out));
    };
    uint64_t fill = lz.wp - lz.start;
    uint64_t in_stripe = fill % layout_->stripe_sectors();
    if (in_stripe > 0) {
        // Seal the open stripe before finishing: its parity slot must
        // hold the XOR of the written prefix (unwritten units read as
        // zeros once the zone is Full) so the parity invariant spans
        // the whole finished zone and a crash mid-finish reconstructs
        // zeros — not garbage XOR'd from an unwritten parity slot.
        uint64_t stripe = fill / layout_->stripe_sectors();
        uint64_t slot = layout_->slot_pba(zone, stripe);
        uint32_t pdev = layout_->parity_dev(zone, stripe);
        bool slot_writable = !dev_unavailable(pdev, zone) &&
            slot >= burned_.burned_end(pdev, zone);
        if (slot_writable) {
            // Relocations can leave the physical wp behind the slot;
            // such stripes are served via the relocation map instead.
            auto zi = devs_[pdev]->zone_info(zone);
            slot_writable = zi.is_ok() && zi.value().wp == slot;
        }
        if (slot_writable) {
            StripeBuffer *buf = get_buffer(zone, stripe);
            std::vector<uint8_t> parity;
            if (store_data_ && buf->stripe_no() == stripe)
                parity = buf->prefix_parity();
            stats_.full_parity_writes++;
            (*pending)++;
            IoRequest req;
            req.op = IoOp::kWrite;
            req.slba = slot;
            req.nsectors = cfg_.su_sectors;
            req.data = std::move(parity);
            req.cause = obs::Cause::kParity;
            dev_submit(pdev, std::move(req),
                       [this, done, pdev](IoResult r) mutable {
                           if (!r.status.is_ok() &&
                               escalate_dev_error(pdev, r.status)) {
                               r.status = Status::ok();
                           }
                           done(std::move(r));
                       });
        }
    }
    uint64_t phys_zone_start =
        static_cast<uint64_t>(zone) * layout_->phys_zone_size();
    for (uint32_t d = 0; d < devs_.size(); ++d) {
        if (static_cast<int>(d) == failed_dev_ || devs_[d]->failed())
            continue;
        (*pending)++;
        IoRequest fin = IoRequest::zone_finish(phys_zone_start);
        fin.cause = obs::Cause::kZoneMgmt;
        dev_submit(d, std::move(fin),
                   [this, done, d](IoResult r) mutable {
                       if (!r.status.is_ok() &&
                           escalate_dev_error(d, r.status)) {
                           r.status = Status::ok();
                       }
                       done(std::move(r));
                   });
    }
    if (*pending == 0) {
        IoResult r;
        r.status = Status(StatusCode::kOffline, "no devices");
        cb(std::move(r));
    }
}

// ---- Read path --------------------------------------------------------

void
RaiznVolume::read(uint64_t lba, uint32_t nsectors, IoCallback cb)
{
    PROF_SCOPE("raizn.read");
    if (nsectors == 0 || lba + nsectors > capacity()) {
        IoResult r;
        r.status = Status(StatusCode::kInvalidArgument, "read out of range");
        loop_->schedule_after(1, [cb = std::move(cb), r]() mutable {
            cb(std::move(r));
        });
        return;
    }
    uint32_t zone = layout_->zone_of(lba);
    LZone &lz = zones_[zone];
    if (lz.blocked) {
        lz.waiters.push_back([this, lba, nsectors,
                              cb = std::move(cb)]() mutable {
            read(lba, nsectors, std::move(cb));
        });
        return;
    }
    stats_.logical_reads++;
    stats_.sectors_read += nsectors;
    if (ledger_ != nullptr) {
        cb = [this, nsectors, inner = std::move(cb)](IoResult r) {
            if (r.status.is_ok())
                ledger_->note_user_read(nsectors);
            inner(std::move(r));
        };
    }
    uint64_t treq = 0;
    if (trace_ != nullptr || read_lat_ != nullptr) {
        uint64_t token = 0;
        if (trace_ != nullptr) {
            treq = trace_->next_request_id();
            token = trace_->begin_span("raizn.read", treq,
                                       obs::kTrackRequest, loop_->now());
        }
        Tick t0 = loop_->now();
        cb = [this, token, t0, inner = std::move(cb)](IoResult r) {
            Tick now = loop_->now();
            if (trace_ != nullptr && token != 0)
                trace_->end_span(token, now);
            if (read_lat_ != nullptr)
                read_lat_->record(now - t0);
            inner(std::move(r));
        };
    }
    if (failed_dev_ >= 0 || lz.has_reloc) {
        read_slow(lba, nsectors, treq, std::move(cb));
    } else {
        read_fast(lba, nsectors, treq, std::move(cb));
    }
}

void
RaiznVolume::read_fast(uint64_t lba, uint32_t nsectors, uint64_t treq,
                       IoCallback cb)
{
    auto extents = layout_->map_range(lba, nsectors);
    struct ReadCtx {
        uint32_t pending = 0;
        bool issued_all = false;
        Status status;
        std::vector<uint8_t> out;
        IoCallback cb;
        bool any_data = false;
    };
    auto ctx = std::make_shared<ReadCtx>();
    ctx->cb = std::move(cb);
    if (store_data_) {
        ctx->out.assign(static_cast<size_t>(nsectors) * kSectorSize, 0);
    }
    auto complete_one = [this, ctx, lba](uint64_t ext_lba, Status s,
                                         const std::vector<uint8_t> &data) {
        if (!s.is_ok() && ctx->status.is_ok())
            ctx->status = s;
        if (!data.empty() && !ctx->out.empty()) {
            size_t off = static_cast<size_t>(ext_lba - lba) * kSectorSize;
            std::memcpy(ctx->out.data() + off, data.data(),
                        std::min(data.size(), ctx->out.size() - off));
            ctx->any_data = true;
        }
        ctx->pending--;
        if (ctx->pending == 0 && ctx->issued_all) {
            IoResult r;
            r.status = ctx->status;
            r.data = std::move(ctx->out);
            auto cb2 = std::move(ctx->cb);
            cb2(std::move(r));
        }
        (void)this;
    };
    for (const auto &ext : extents) {
        ctx->pending++;
        IoRequest rreq = IoRequest::read(ext.pba, ext.nsectors);
        rreq.trace_req = treq;
        rreq.trace_stage = "read.data";
        rreq.cause = obs::Cause::kUserData;
        dev_submit(
            ext.dev, std::move(rreq),
            [this, ctx, ext, complete_one](IoResult r) {
                if (!r.status.is_ok()) {
                    // Retries exhausted or device died under us: if the
                    // health monitor escalates to a device failure, fall
                    // back to parity reconstruction.
                    if (escalate_dev_error(ext.dev, r.status)) {
                        read_extent_degraded(
                            ext, [ext, complete_one](
                                     Status s, std::vector<uint8_t> d) {
                                complete_one(ext.lba, s, d);
                            });
                        return;
                    }
                    complete_one(ext.lba, r.status, r.data);
                    return;
                }
                if (!r.data.empty() &&
                    !crc_range_ok(ext.lba, r.data.data(), ext.nsectors)) {
                    // Silent corruption: the payload disagrees with the
                    // CRC catalog. Serve the read via reconstruction.
                    stats_.crc_mismatches++;
                    read_extent_degraded(
                        ext, [ext, complete_one](Status s,
                                                 std::vector<uint8_t> d) {
                            complete_one(ext.lba, s, d);
                        });
                    return;
                }
                complete_one(ext.lba, r.status, r.data);
            });
    }
    ctx->issued_all = true;
    if (ctx->pending == 0) {
        IoResult r;
        r.status = ctx->status;
        r.data = std::move(ctx->out);
        auto cb2 = std::move(ctx->cb);
        loop_->schedule_after(1, [cb2 = std::move(cb2),
                                  r = std::move(r)]() mutable {
            cb2(std::move(r));
        });
    }
}

void
RaiznVolume::read_slow(uint64_t lba, uint32_t nsectors, uint64_t treq,
                       IoCallback cb)
{
    auto extents = layout_->map_range(lba, nsectors);
    struct ReadCtx {
        uint32_t pending = 0;
        bool issued_all = false;
        Status status;
        std::vector<uint8_t> out;
        IoCallback cb;
    };
    auto ctx = std::make_shared<ReadCtx>();
    ctx->cb = std::move(cb);
    if (store_data_)
        ctx->out.assign(static_cast<size_t>(nsectors) * kSectorSize, 0);

    auto complete_one = [ctx, lba](uint64_t ext_lba, Status s,
                                   const std::vector<uint8_t> &data) {
        if (!s.is_ok() && ctx->status.is_ok())
            ctx->status = s;
        if (!data.empty() && !ctx->out.empty()) {
            size_t off = static_cast<size_t>(ext_lba - lba) * kSectorSize;
            std::memcpy(ctx->out.data() + off, data.data(),
                        std::min(data.size(), ctx->out.size() - off));
        }
        ctx->pending--;
        if (ctx->pending == 0 && ctx->issued_all) {
            IoResult r;
            r.status = ctx->status;
            r.data = std::move(ctx->out);
            auto cb2 = std::move(ctx->cb);
            cb2(std::move(r));
        }
    };

    for (const auto &ext : extents) {
        // Split the extent into runs with uniform relocation state.
        uint64_t cur = ext.lba;
        uint64_t end = ext.lba + ext.nsectors;
        while (cur < end) {
            const Relocation *rel = reloc_.find(cur);
            uint64_t run_end = end;
            if (rel) {
                run_end = std::min(end, rel->lba + rel->nsectors);
            } else {
                // Run extends until the next relocation begins.
                for (uint64_t probe = cur; probe < end; ++probe) {
                    if (reloc_.find(probe)) {
                        run_end = probe;
                        break;
                    }
                }
            }
            uint32_t run_len = static_cast<uint32_t>(run_end - cur);
            PhysExtent sub = ext;
            sub.lba = cur;
            sub.nsectors = run_len;
            sub.pba = ext.pba + (cur - ext.lba);
            ctx->pending++;
            if (rel) {
                // Serve from the in-memory relocation cache (or the
                // metadata zone copy when not cached).
                uint64_t off_in_rel = cur - rel->lba;
                if (!rel->cached.empty()) {
                    std::vector<uint8_t> data(
                        rel->cached.begin() +
                            static_cast<ptrdiff_t>(off_in_rel * kSectorSize),
                        rel->cached.begin() +
                            static_cast<ptrdiff_t>((off_in_rel + run_len) *
                                                   kSectorSize));
                    uint64_t at = cur;
                    loop_->schedule_after(
                        kNsPerUs, [complete_one, at,
                                   data = std::move(data)]() mutable {
                            complete_one(at, Status::ok(), data);
                        });
                } else if (static_cast<int>(rel->dev) != failed_dev_ &&
                           !devs_[rel->dev]->failed()) {
                    uint64_t at = cur;
                    IoRequest rreq =
                        IoRequest::read(rel->md_pba + off_in_rel, run_len);
                    rreq.trace_req = treq;
                    rreq.trace_stage = "read.reloc";
                    rreq.cause = obs::Cause::kRelocation;
                    dev_submit(
                        rel->dev, std::move(rreq),
                        [this, complete_one, at,
                         rdev = rel->dev](IoResult r) {
                            if (!r.status.is_ok())
                                escalate_dev_error(rdev, r.status);
                            complete_one(at, r.status, r.data);
                        });
                } else {
                    uint64_t at = cur;
                    loop_->schedule_after(
                        kNsPerUs, [complete_one, at] {
                            complete_one(
                                at,
                                Status(StatusCode::kIoError,
                                       "relocated data on failed device"),
                                {});
                        });
                }
            } else if (static_cast<int>(sub.dev) == failed_dev_ ||
                       devs_[sub.dev]->failed()) {
                uint64_t at = cur;
                read_extent_degraded(
                    sub, [complete_one, at](Status s,
                                            std::vector<uint8_t> d) {
                        complete_one(at, s, d);
                    });
            } else {
                uint64_t at = cur;
                IoRequest rreq = IoRequest::read(sub.pba, sub.nsectors);
                rreq.trace_req = treq;
                rreq.trace_stage = "read.data";
                rreq.cause = obs::Cause::kUserData;
                dev_submit(
                    sub.dev, std::move(rreq),
                    [this, complete_one, at, sub](IoResult r) {
                        if (!r.status.is_ok()) {
                            if (escalate_dev_error(sub.dev, r.status)) {
                                read_extent_degraded(
                                    sub, [complete_one, at](
                                             Status s,
                                             std::vector<uint8_t> d) {
                                        complete_one(at, s, d);
                                    });
                                return;
                            }
                            complete_one(at, r.status, r.data);
                            return;
                        }
                        if (!r.data.empty() &&
                            !crc_range_ok(at, r.data.data(),
                                          sub.nsectors)) {
                            stats_.crc_mismatches++;
                            read_extent_degraded(
                                sub, [complete_one, at](
                                         Status s, std::vector<uint8_t> d) {
                                    complete_one(at, s, d);
                                });
                            return;
                        }
                        complete_one(at, r.status, r.data);
                    });
            }
            cur = run_end;
        }
    }
    ctx->issued_all = true;
    if (ctx->pending == 0) {
        IoResult r;
        r.status = ctx->status;
        r.data = std::move(ctx->out);
        auto cb2 = std::move(ctx->cb);
        loop_->schedule_after(1, [cb2 = std::move(cb2),
                                  r = std::move(r)]() mutable {
            cb2(std::move(r));
        });
    }
}

void
RaiznVolume::read_extent_degraded(
    const PhysExtent &ext,
    std::function<void(Status, std::vector<uint8_t>)> cb)
{
    stats_.degraded_reads++;
    uint32_t zone = layout_->zone_of(ext.lba);
    uint64_t off = ext.lba - layout_->zone_start_lba(zone);
    uint64_t stripe = off / layout_->stripe_sectors();
    uint64_t in_stripe = off % layout_->stripe_sectors();
    int pos = static_cast<int>(in_stripe / cfg_.su_sectors);
    uint64_t lo = in_stripe % cfg_.su_sectors;
    reconstruct_stripe_unit(zone, stripe, pos, lo, lo + ext.nsectors,
                            std::move(cb));
}

void
RaiznVolume::reconstruct_stripe_unit(
    uint32_t zone, uint64_t stripe, int pos, uint64_t lo, uint64_t hi,
    std::function<void(Status, std::vector<uint8_t>)> cb)
{
    stats_.reconstructed_sectors += hi - lo;
    const uint32_t D = cfg_.data_units();
    const uint32_t su = cfg_.su_sectors;
    LZone &lz = zones_[zone];

    // Fast path: the stripe's data is still in its stripe buffer.
    if (!lz.buffers.empty() && store_data_) {
        StripeBuffer *buf =
            lz.buffers[stripe % cfg_.stripe_buffers_per_zone].get();
        if (buf->stripe_no() == stripe) {
            std::vector<uint8_t> data;
            if (pos >= 0) {
                const uint8_t *unit =
                    buf->unit_data(static_cast<uint32_t>(pos));
                data.assign(unit + lo * kSectorSize,
                            unit + hi * kSectorSize);
            } else {
                std::vector<uint8_t> parity = buf->complete()
                    ? buf->full_parity()
                    : buf->prefix_parity();
                data.assign(parity.begin() +
                                static_cast<ptrdiff_t>(lo * kSectorSize),
                            parity.begin() +
                                static_cast<ptrdiff_t>(hi * kSectorSize));
            }
            loop_->schedule_after(kNsPerUs,
                                  [cb = std::move(cb),
                                   data = std::move(data)]() mutable {
                                      cb(Status::ok(), std::move(data));
                                  });
            return;
        }
    }

    // Which sources must be read: every live data unit of the stripe
    // plus the parity (complete stripe) or the logged partial parity.
    uint64_t zone_fill = lz.wp - lz.start;
    uint64_t stripe_end = (stripe + 1) * layout_->stripe_sectors();
    bool complete = zone_fill >= stripe_end ||
        lz.cond == raizn::ZoneState::kFull;

    struct RecCtx {
        uint32_t pending = 0;
        bool issued_all = false;
        Status status;
        std::vector<uint8_t> acc; ///< XOR accumulator
        std::function<void(Status, std::vector<uint8_t>)> cb;
    };
    auto ctx = std::make_shared<RecCtx>();
    ctx->cb = std::move(cb);
    ctx->acc.assign(static_cast<size_t>(hi - lo) * kSectorSize, 0);

    auto one_done = [this, ctx](Status s, const std::vector<uint8_t> &d) {
        if (!s.is_ok() && ctx->status.is_ok())
            ctx->status = s;
        if (!d.empty() && store_data_)
            xor_bytes(ctx->acc.data(), d.data(),
                      std::min(d.size(), ctx->acc.size()));
        ctx->pending--;
        if (ctx->pending == 0 && ctx->issued_all) {
            auto cb2 = std::move(ctx->cb);
            cb2(ctx->status, std::move(ctx->acc));
        }
    };

    // Surviving data units.
    uint64_t zs = layout_->zone_start_lba(zone);
    uint64_t stripe_base = stripe * layout_->stripe_sectors();
    // When reconstructing a data unit of an incomplete stripe, only the
    // prefix covered by the partial-parity records contributed to the
    // accumulator: after a crash the durable pp log can trail the
    // recovered zone fill, and XOR-ing a unit beyond that coverage
    // would fold in data the parity never saw.
    uint64_t pp_cov = 0;
    if (!complete && pos >= 0) {
        auto it = pp_index_.find(zs_key(zone, stripe));
        if (it != pp_index_.end()) {
            for (const PpRecord &rec : it->second)
                pp_cov = std::max(pp_cov, rec.end_lba - zs);
        }
    }
    for (uint32_t k = 0; k < D; ++k) {
        if (static_cast<int>(k) == pos)
            continue;
        uint32_t dev = layout_->data_dev(zone, stripe, k);
        // How much of unit k exists (zero beyond the zone fill)?
        uint64_t unit_start = stripe_base + static_cast<uint64_t>(k) * su;
        uint64_t fill_limit = pos >= 0 ? std::min(zone_fill, pp_cov)
                                       : zone_fill;
        if (unit_start + lo >= fill_limit && !complete)
            continue; // unit not written yet: contributes zeros
        uint64_t unit_hi = hi;
        if (!complete) {
            uint64_t avail = fill_limit > unit_start
                ? std::min<uint64_t>(su, fill_limit - unit_start)
                : 0;
            unit_hi = std::min(hi, std::max(lo, avail));
            if (unit_hi <= lo)
                continue;
        }
        uint64_t read_lba = zs + unit_start + lo;
        // Relocated? (burned slot redirected to metadata zone)
        const Relocation *rel = reloc_.find(read_lba);
        ctx->pending++;
        uint32_t len = static_cast<uint32_t>(unit_hi - lo);
        if (rel && !rel->cached.empty()) {
            uint64_t off_in_rel = read_lba - rel->lba;
            std::vector<uint8_t> d(
                rel->cached.begin() +
                    static_cast<ptrdiff_t>(off_in_rel * kSectorSize),
                rel->cached.begin() +
                    static_cast<ptrdiff_t>((off_in_rel + len) *
                                           kSectorSize));
            loop_->schedule_after(kNsPerUs,
                                  [one_done, d = std::move(d)] {
                                      one_done(Status::ok(), d);
                                  });
        } else if (static_cast<int>(dev) != failed_dev_ &&
                   !devs_[dev]->failed()) {
            uint64_t pba = layout_->slot_pba(zone, stripe) + lo;
            IoRequest rreq = IoRequest::read(pba, len);
            rreq.trace_stage = "read.reconstruct";
            rreq.cause = obs::Cause::kParity;
            dev_submit(dev, std::move(rreq),
                       [this, one_done, dev](IoResult r) {
                           if (!r.status.is_ok())
                               escalate_dev_error(dev, r.status);
                           one_done(r.status, r.data);
                       });
        } else {
            loop_->schedule_after(kNsPerUs, [one_done] {
                one_done(Status(StatusCode::kIoError,
                                "two devices unavailable"),
                         {});
            });
        }
    }

    if (pos >= 0) {
        // Reconstructing a data unit: fold in the parity.
        if (complete) {
            uint32_t pdev = layout_->parity_dev(zone, stripe);
            auto prel = parity_reloc_.find(zs_key(zone, stripe));
            ctx->pending++;
            if (prel != parity_reloc_.end() &&
                !prel->second.cached.empty()) {
                std::vector<uint8_t> d(
                    prel->second.cached.begin() +
                        static_cast<ptrdiff_t>(lo * kSectorSize),
                    prel->second.cached.begin() +
                        static_cast<ptrdiff_t>(hi * kSectorSize));
                loop_->schedule_after(kNsPerUs,
                                      [one_done, d = std::move(d)] {
                                          one_done(Status::ok(), d);
                                      });
            } else if (static_cast<int>(pdev) != failed_dev_ &&
                       !devs_[pdev]->failed()) {
                uint64_t pba = layout_->slot_pba(zone, stripe) + lo;
                IoRequest preq =
                    IoRequest::read(pba, static_cast<uint32_t>(hi - lo));
                preq.trace_stage = "read.reconstruct";
                preq.cause = obs::Cause::kParity;
                dev_submit(pdev, std::move(preq),
                           [this, one_done, pdev](IoResult r) {
                               if (!r.status.is_ok())
                                   escalate_dev_error(pdev, r.status);
                               one_done(r.status, r.data);
                           });
            } else {
                loop_->schedule_after(kNsPerUs, [one_done] {
                    one_done(Status(StatusCode::kIoError,
                                    "parity unavailable"),
                             {});
                });
            }
        } else {
            // Incomplete stripe: apply the cumulative partial parity
            // from the in-memory index (§5.1).
            auto it = pp_index_.find(zs_key(zone, stripe));
            if (it != pp_index_.end() && store_data_) {
                std::vector<uint8_t> parity(
                    static_cast<size_t>(su) * kSectorSize, 0);
                for (const PpRecord &rec : it->second) {
                    if (rec.delta.empty())
                        continue;
                    xor_bytes(parity.data() +
                                  rec.lo_sector * kSectorSize,
                              rec.delta.data(), rec.delta.size());
                }
                ctx->pending++;
                std::vector<uint8_t> d(
                    parity.begin() +
                        static_cast<ptrdiff_t>(lo * kSectorSize),
                    parity.begin() +
                        static_cast<ptrdiff_t>(hi * kSectorSize));
                loop_->schedule_after(kNsPerUs,
                                      [one_done, d = std::move(d)] {
                                          one_done(Status::ok(), d);
                                      });
            } else if (store_data_) {
                ctx->pending++;
                loop_->schedule_after(kNsPerUs, [one_done] {
                    one_done(Status(StatusCode::kIoError,
                                    "no partial parity for stripe"),
                             {});
                });
            }
        }
    }

    ctx->issued_all = true;
    if (ctx->pending == 0) {
        auto cb2 = std::move(ctx->cb);
        loop_->schedule_after(1, [cb2 = std::move(cb2), ctx]() mutable {
            cb2(ctx->status, std::move(ctx->acc));
        });
    }
}

// ---- Fault management --------------------------------------------------

void
RaiznVolume::mark_device_failed(uint32_t dev)
{
    if (dev >= devs_.size()) {
        LOG_ERROR("mark_device_failed: no device %u", dev);
        return;
    }
    if (failed_dev_ == static_cast<int>(dev))
        return;
    if (failed_dev_ >= 0) {
        LOG_ERROR("second device failure (dev %u): volume is read-only",
                  dev);
        read_only_ = true;
        return;
    }
    LOG_INFO("device %u marked failed; serving degraded", dev);
    failed_dev_ = static_cast<int>(dev);
    if (!devs_[dev]->failed())
        devs_[dev]->fail();
    maybe_start_auto_rebuild(dev);
}

void
RaiznVolume::on_health_event(uint32_t dev, HealthEvent ev)
{
    switch (ev) {
    case HealthEvent::kSuspect:
        stats_.health_suspects++;
        LOG_INFO("device %u health: suspect", dev);
        break;
    case HealthEvent::kFailSlow:
        stats_.fail_slow_detected++;
        LOG_WARN("device %u health: fail-slow (latency EWMA far above "
                 "peers)",
                 dev);
        break;
    case HealthEvent::kFailed:
        // The data path escalates through escalate_dev_error when a
        // command actually fails; this edge catches evidence that
        // accrued without a caller to observe it (e.g. metadata-path
        // retries) so the failover never waits for the next IO.
        if (failed_dev_ != static_cast<int>(dev))
            mark_device_failed(dev);
        break;
    }
}

void
RaiznVolume::promote_spare(uint32_t dev)
{
    promote_spare_base(dev);
    md_->replace_device(dev, devs_[dev]);
    LOG_INFO("hot spare promoted into slot %u", dev);
}

void
RaiznVolume::maybe_start_auto_rebuild(uint32_t dev)
{
    if (!lifecycle_.auto_rebuild || spare_ == nullptr || read_only_ ||
        failed_dev_ != static_cast<int>(dev)) {
        return;
    }
    if (spare_->failed() ||
        spare_->geometry().nzones != devs_[dev]->geometry().nzones) {
        LOG_ERROR("hot spare unusable; staying degraded");
        return;
    }
    stats_.auto_failovers++;
    // Defer off the error path: mark_device_failed can run deep inside
    // a sub-IO completion and the rebuild rewrites metadata
    // synchronously.
    loop_->schedule_after(1, [this, dev, alive = alive_] {
        if (!*alive || failed_dev_ != static_cast<int>(dev))
            return;
        promote_spare(dev);
        auto on_done = lifecycle_.on_rebuild_done;
        rebuild_device(dev, nullptr, [this, dev, on_done,
                                      alive = alive_](Status s) {
            if (!*alive)
                return;
            if (s.is_ok())
                LOG_INFO("automatic rebuild of slot %u complete", dev);
            else
                LOG_ERROR("automatic rebuild of slot %u failed: %s", dev,
                          s.to_string().c_str());
            if (on_done)
                on_done(dev, s);
        });
    });
}

// ---- Metadata GC snapshots ---------------------------------------------

std::vector<MdAppend>
RaiznVolume::snapshot_for_gc(uint32_t dev, MdZoneRole role)
{
    std::vector<MdAppend> out;
    if (role == MdZoneRole::kParityLog) {
        // Partial parity is recomputed by XOR'ing the stripe buffer of
        // each open logical zone (§4.3).
        for (uint32_t z = 0; z < zones_.size(); ++z) {
            LZone &lz = zones_[z];
            if (!is_open(lz.cond) || lz.buffers.empty())
                continue;
            uint64_t fill = lz.wp - lz.start;
            if (fill == 0 || fill % layout_->stripe_sectors() == 0)
                continue;
            uint64_t stripe = fill / layout_->stripe_sectors();
            if (layout_->parity_dev(z, stripe) != dev)
                continue;
            StripeBuffer *buf =
                lz.buffers[stripe % cfg_.stripe_buffers_per_zone].get();
            if (buf->stripe_no() != stripe)
                continue;
            uint64_t in_stripe = fill % layout_->stripe_sectors();
            std::vector<uint8_t> parity = buf->prefix_parity();
            uint64_t sectors =
                std::min<uint64_t>(cfg_.su_sectors, in_stripe);
            parity.resize(sectors * kSectorSize);
            MdAppend app = make_pp_append(
                z, stripe, lz.start + stripe * layout_->stripe_sectors(),
                lz.start + fill, 0, std::move(parity));
            out.push_back(std::move(app));
        }
        return out;
    }

    // General zone: superblock, generation counters, relocations,
    // nothing for reset logs (completed resets need no checkpoint;
    // pending ones re-log themselves).
    Superblock copy = sb_;
    copy.dev_id = dev;
    MdAppend sb_app;
    sb_app.header.type = MdType::kSuperblock;
    sb_app.inline_data = copy.encode();
    out.push_back(std::move(sb_app));

    // An in-flight device rebuild keeps its progress record alive
    // across metadata GC — dropping it would turn a crash during GC
    // into an unresumable rebuild.
    if (rebuilding_ && failed_dev_ >= 0 &&
        dev != static_cast<uint32_t>(failed_dev_)) {
        MdAppend app;
        app.header.type = MdType::kRebuildCheckpoint;
        app.header.generation = gen_update_seq_++;
        app.inline_data = encode_current_rebuild_checkpoint(
            static_cast<uint32_t>(failed_dev_),
            RebuildCheckpointRecord::kInProgress, ~0u);
        out.push_back(std::move(app));
    }

    for (uint32_t b = 0; b < gen_.num_blocks(); ++b) {
        MdAppend app;
        app.header = gen_.block_header(b, gen_update_seq_++);
        app.inline_data = gen_.encode_block(b);
        out.push_back(std::move(app));
    }

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
        out.push_back(std::move(app));
    }
    for (const auto &[key, rel] : parity_reloc_) {
        if (rel.dev != dev)
            continue;
        MdAppend app;
        app.header.type = MdType::kRelocatedSu;
        app.header.start_lba = key;
        app.header.end_lba = key;
        app.header.generation =
            gen_.get(static_cast<uint32_t>(key >> 32));
        app.inline_data.assign(8, 0);
        app.inline_data[4] = 1;
        app.payload = rel.cached;
        if (app.payload.empty()) {
            app.payload.assign(
                static_cast<size_t>(cfg_.su_sectors) * kSectorSize, 0);
        }
        out.push_back(std::move(app));
    }
    return out;
}

bool
RaiznVolume::stripe_displaced(uint32_t zone, uint64_t stripe) const
{
    if (parity_reloc_.count(zs_key(zone, stripe)))
        return true;
    // A burned physical range overlapping the stripe's slot means later
    // rewrites of the slot were redirected into metadata zones.
    uint64_t slot = layout_->slot_pba(zone, stripe);
    for (uint32_t d = 0; d < layout_->num_devices(); ++d) {
        if (slot < burned_.burned_end(d, zone))
            return true;
    }
    uint64_t lo = layout_->zone_start_lba(zone) +
        stripe * layout_->stripe_sectors();
    for (uint64_t lba = lo; lba < lo + layout_->stripe_sectors(); ++lba) {
        if (reloc_.find(lba))
            return true;
    }
    return false;
}

RaiznVolume::MemoryFootprint
RaiznVolume::memory_footprint() const
{
    MemoryFootprint fp{};
    fp.gen_counters = gen_.memory_bytes();
    fp.superblock = kSectorSize;
    for (const LZone &lz : zones_) {
        for (const auto &buf : lz.buffers)
            fp.stripe_buffers += buf->memory_bytes();
        fp.persistence_bitmaps += lz.pbm.memory_bytes();
    }
    // 64 bytes per logical zone descriptor plus 64 per physical zone
    // per device (Table 1).
    fp.zone_descriptors = zones_.size() * 64 +
        static_cast<size_t>(layout_->phys_geometry().nzones) *
            devs_.size() * 64;
    for (const Relocation *rel : reloc_.all())
        fp.relocations += sizeof(Relocation) + rel->cached.size();
    return fp;
}

} // namespace raizn
