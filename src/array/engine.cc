/**
 * @file
 * ZonedEngine data path: geometry/placement, the per-(member, zone)
 * submit chains, flush barriers, the replicated journal, and the
 * read/write/reset/finish implementations. Mount/rebuild/scrub live in
 * engine_recover.cc.
 */
#include "array/engine.h"

#include <algorithm>
#include <cstring>

#include "array/gf256.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "common/xor.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/prof/prof.h"
#include "obs/trace.h"
#include "sim/event_loop.h"

namespace raizn {

namespace {

constexpr uint64_t kWalMagic = 0x5a41574c30303031ull; // "ZAWL0001"
constexpr size_t kWalCrcOff = 36; // header bytes covered by the CRC

uint64_t
bit(uint32_t dev)
{
    return 1ull << dev;
}

uint64_t
chain_key(uint32_t dev, uint32_t phys_zone)
{
    return (static_cast<uint64_t>(dev) << 32) | phys_zone;
}

} // namespace

std::string
EngineStats::dump() const
{
    return obs::render_stats(*this);
}

struct ZonedEngine::WriteCtx {
    uint32_t pending = 0;
    bool issued_all = false;
    Status status;
    WriteFlags flags;
    uint32_t nsectors = 0; ///< logical length (acked-user-byte ledger)
    IoCallback cb;
    Tick t0 = 0;
    uint64_t req_id = 0;      ///< trace request id (0 = untraced)
    uint64_t total_token = 0; ///< open "eng.write" span token
};

struct ZonedEngine::FlushBarrier {
    std::set<uint64_t> waiting;
    IoCallback cb;
};

// ---------------------------------------------------------------------
// Construction / geometry
// ---------------------------------------------------------------------

Status
ZonedEngine::validate(const std::vector<BlockDevice *> &devs,
                      const EngineConfig &cfg)
{
    if (cfg.mode == RaidMode::kRaizn || cfg.mode == RaidMode::kMdraid)
        return Status(StatusCode::kInvalidArgument,
                      "use the dedicated implementation for this mode");
    if (devs.size() < 2 || devs.size() > 64)
        return Status(StatusCode::kInvalidArgument,
                      "engine needs 2..64 members");
    const uint32_t n = static_cast<uint32_t>(devs.size());
    uint32_t min_devs = 2;
    switch (cfg.mode) {
    case RaidMode::kRaid5:
    case RaidMode::kAuto:
        min_devs = 3;
        break;
    case RaidMode::kRaid6:
    case RaidMode::kRaid10:
        min_devs = 4;
        break;
    default:
        break;
    }
    if (n < min_devs)
        return Status(StatusCode::kInvalidArgument,
                      strprintf("%s needs at least %u members",
                                std::string(to_string(cfg.mode)).c_str(),
                                min_devs));
    if (cfg.mode == RaidMode::kRaid10 && n % 2 != 0)
        return Status(StatusCode::kInvalidArgument,
                      "raid10 needs an even member count");
    if (cfg.su_sectors == 0)
        return Status(StatusCode::kInvalidArgument, "su_sectors == 0");
    const DeviceGeometry &g0 = devs[0]->geometry();
    for (BlockDevice *d : devs) {
        const DeviceGeometry &g = d->geometry();
        if (!g.zoned)
            return Status(StatusCode::kInvalidArgument,
                          "engine members must be zoned devices");
        if (g.zone_size != g0.zone_size ||
            g.zone_capacity != g0.zone_capacity || g.nzones != g0.nzones)
            return Status(StatusCode::kInvalidArgument,
                          "engine members must share one geometry");
        if (d->data_mode() != devs[0]->data_mode())
            return Status(StatusCode::kInvalidArgument,
                          "engine members must share one data mode");
    }
    if (g0.nzones < 2)
        return Status(StatusCode::kInvalidArgument,
                      "need at least 2 zones (one is the journal)");
    if (g0.zone_capacity < cfg.su_sectors)
        return Status(StatusCode::kInvalidArgument,
                      "zone capacity below one stripe unit");
    return Status::ok();
}

ZonedEngine::ZonedEngine(EventLoop *loop, std::vector<BlockDevice *> devs,
                         const EngineConfig &cfg)
    : ZonedArray(loop, std::move(devs),
                 StatCells{&stats_.io_retries, &stats_.io_timeouts,
                           &stats_.dev_errors, &stats_.spares_promoted}),
      cfg_(cfg)
{
    const DeviceGeometry &g = devs_[0]->geometry();
    const uint32_t n = num_devices();
    const uint64_t su = cfg_.su_sectors;
    const uint64_t z = g.zone_capacity;
    phys_cap_ = z;
    nzones_ = g.nzones - 1;
    wal_slots_ = z;
    store_data_ = devs_[0]->data_mode() == DataMode::kStore;
    switch (cfg_.mode) {
    case RaidMode::kRaid0:
        zone_cap_ = (z / su) * su * n;
        break;
    case RaidMode::kRaid1:
        zone_cap_ = z;
        break;
    case RaidMode::kRaid5:
        zone_cap_ = (z / su) * su * (n - 1);
        break;
    case RaidMode::kRaid6:
        zone_cap_ = (z / su) * su * (n - 2);
        break;
    case RaidMode::kRaid10:
        zone_cap_ = (z / su) * su * (n / 2);
        break;
    case RaidMode::kAuto:
        // One capacity must fit both layouts: mirrored zones store C
        // sectors per member (C <= Z), parity zones C / (n-1).
        zone_cap_ = (z / (su * (n - 1))) * su * (n - 1);
        break;
    default:
        zone_cap_ = 0;
        break;
    }
    failed_devs_.assign(n, false);
    zone_rebuilt_.assign(nzones_, false);
    zones_.resize(nzones_);
    for (EZone &ez : zones_) {
        ez.kind = fixed_kind();
        ez.kind_decided = cfg_.mode != RaidMode::kAuto;
    }
}

ZonedEngine::~ZonedEngine() = default;

Result<std::unique_ptr<ZonedEngine>>
ZonedEngine::create(EventLoop *loop, std::vector<BlockDevice *> devs,
                    const EngineConfig &cfg)
{
    Status s = validate(devs, cfg);
    if (!s.is_ok())
        return s;
    std::unique_ptr<ZonedEngine> e(
        new ZonedEngine(loop, std::move(devs), cfg));
    if (e->zone_cap_ == 0)
        return Status(StatusCode::kInvalidArgument,
                      "zone capacity too small for this mode");
    return e;
}

Result<std::unique_ptr<ZonedEngine>>
ZonedEngine::mount(EventLoop *loop, std::vector<BlockDevice *> devs,
                   const EngineConfig &cfg)
{
    Status s = validate(devs, cfg);
    if (!s.is_ok())
        return s;
    if (devs[0]->data_mode() != DataMode::kStore)
        return Status(StatusCode::kNotSupported,
                      "mount requires data-storing members");
    std::unique_ptr<ZonedEngine> e(
        new ZonedEngine(loop, std::move(devs), cfg));
    if (e->zone_cap_ == 0)
        return Status(StatusCode::kInvalidArgument,
                      "zone capacity too small for this mode");
    s = e->run_mount();
    if (!s.is_ok())
        return s;
    return e;
}

ZonedEngine::ZoneKind
ZonedEngine::fixed_kind() const
{
    switch (cfg_.mode) {
    case RaidMode::kRaid0:
        return ZoneKind::kStripe0;
    case RaidMode::kRaid1:
        return ZoneKind::kMirror;
    case RaidMode::kRaid6:
        return ZoneKind::kDualParity;
    case RaidMode::kRaid10:
        return ZoneKind::kMirrorPairs;
    default:
        return ZoneKind::kParity; // raid5; auto placeholder until decided
    }
}

uint32_t
ZonedEngine::units_of(ZoneKind k) const
{
    const uint32_t n = num_devices();
    switch (k) {
    case ZoneKind::kStripe0:
        return n;
    case ZoneKind::kMirror:
        return 1;
    case ZoneKind::kMirrorPairs:
        return n / 2;
    case ZoneKind::kParity:
        return n - 1;
    case ZoneKind::kDualParity:
        return n - 2;
    }
    return 1;
}

uint64_t
ZonedEngine::dev_row_lba(uint32_t zone, uint64_t row) const
{
    return static_cast<uint64_t>(zone + 1) *
               devs_[0]->geometry().zone_size +
           row;
}

bool
ZonedEngine::dev_live(uint32_t dev) const
{
    return !failed_devs_[dev] &&
           !(rebuilding_ && static_cast<int>(dev) == rebuild_dev_);
}

bool
ZonedEngine::dev_down_for_zone(uint32_t dev, uint32_t zone) const
{
    return failed_devs_[dev] ||
           (zones_[zone].participants & bit(dev)) == 0;
}

Result<ZoneInfo>
ZonedEngine::zone_info(uint32_t zone) const
{
    if (zone >= nzones_)
        return Status(StatusCode::kInvalidArgument, "zone out of range");
    const EZone &z = zones_[zone];
    ZoneInfo zi;
    zi.start = static_cast<uint64_t>(zone) * zone_cap_;
    zi.capacity = zone_cap_;
    zi.wp = zi.start + z.fill;
    zi.state = z.finished ? ZoneState::kFull
        : z.fill > 0      ? ZoneState::kImplicitOpen
                          : ZoneState::kEmpty;
    return zi;
}

// ---- Introspection --------------------------------------------------

ZonedEngine::ZoneKind
ZonedEngine::zone_kind(uint32_t zone) const
{
    return zones_[zone].kind;
}

bool
ZonedEngine::zone_kind_decided(uint32_t zone) const
{
    return zones_[zone].kind_decided;
}

uint64_t
ZonedEngine::zone_gen(uint32_t zone) const
{
    return zones_[zone].gen;
}

bool
ZonedEngine::zone_frozen(uint32_t zone) const
{
    return zones_[zone].frozen;
}

bool
ZonedEngine::zone_finished(uint32_t zone) const
{
    return zones_[zone].finished;
}

uint64_t
ZonedEngine::zone_participants(uint32_t zone) const
{
    return zones_[zone].participants;
}

uint32_t
ZonedEngine::data_units(uint32_t zone) const
{
    return units_of(zones_[zone].kind);
}

uint32_t
ZonedEngine::chunk_dev(uint32_t zone, uint64_t stripe, uint32_t u) const
{
    const uint32_t n = num_devices();
    switch (zones_[zone].kind) {
    case ZoneKind::kStripe0:
        return u;
    case ZoneKind::kMirror:
        return 0;
    case ZoneKind::kMirrorPairs:
        return 2 * u;
    case ZoneKind::kParity: {
        uint32_t p = (n - 1 - ((zone + stripe) % n)) % n;
        return (p + 1 + u) % n;
    }
    case ZoneKind::kDualParity: {
        uint32_t p = (n - 1 - ((zone + stripe) % n)) % n;
        uint32_t q = (p + 1) % n;
        return (q + 1 + u) % n;
    }
    }
    return 0;
}

int
ZonedEngine::parity_dev(uint32_t zone, uint64_t stripe) const
{
    const uint32_t n = num_devices();
    ZoneKind k = zones_[zone].kind;
    if (k != ZoneKind::kParity && k != ZoneKind::kDualParity)
        return -1;
    return static_cast<int>((n - 1 - ((zone + stripe) % n)) % n);
}

int
ZonedEngine::q_dev(uint32_t zone, uint64_t stripe) const
{
    if (zones_[zone].kind != ZoneKind::kDualParity)
        return -1;
    const uint32_t n = num_devices();
    uint32_t p = (n - 1 - ((zone + stripe) % n)) % n;
    return static_cast<int>((p + 1) % n);
}

std::vector<uint32_t>
ZonedEngine::unit_devs(uint32_t zone, uint64_t stripe, uint32_t u) const
{
    switch (zones_[zone].kind) {
    case ZoneKind::kMirror: {
        std::vector<uint32_t> all(num_devices());
        for (uint32_t d = 0; d < num_devices(); ++d)
            all[d] = d;
        return all;
    }
    case ZoneKind::kMirrorPairs:
        return {2 * u, 2 * u + 1};
    default:
        return {chunk_dev(zone, stripe, u)};
    }
}

uint64_t
ZonedEngine::degraded_fill(uint32_t zone, uint32_t down) const
{
    const EZone &z = zones_[zone];
    const uint32_t su = cfg_.su_sectors;
    const uint32_t units = units_of(z.kind);
    switch (z.kind) {
    case ZoneKind::kMirror: {
        uint64_t best = 0;
        for (uint32_t d = 0; d < num_devices(); ++d) {
            if (d == down || dev_down_for_zone(d, zone))
                continue;
            uint64_t f = z.rec_fill.empty()
                ? z.fill
                : std::min<uint64_t>(z.rec_fill[d], zone_cap_);
            best = std::max(best, f);
        }
        return std::min(best, z.finished ? zone_cap_ : z.fill);
    }
    case ZoneKind::kMirrorPairs: {
        uint64_t limit = z.finished ? zone_cap_ : z.fill;
        for (uint64_t off = 0; off < limit; ++off) {
            uint64_t stripe = off / (su * static_cast<uint64_t>(units));
            uint32_t u = (off % (su * units)) / su;
            uint64_t row = stripe * su + off % su;
            bool avail = false;
            for (uint32_t d : {2 * u, 2 * u + 1}) {
                if (d == down || dev_down_for_zone(d, zone))
                    continue;
                if (!z.rec_fill.empty() && z.rec_fill[d] <= row)
                    continue;
                avail = true;
            }
            if (!avail)
                return off;
        }
        return limit;
    }
    case ZoneKind::kStripe0: {
        uint64_t limit = z.finished ? zone_cap_ : z.fill;
        if (down < units)
            return std::min<uint64_t>(limit, down * su);
        return limit;
    }
    default:
        // Parity kinds reconstruct at runtime; post-crash the frozen
        // prefix stops at the first sector mapped to the lost member
        // (tail parity is volatile — see DESIGN.md).
        if (!z.frozen)
            return z.finished ? zone_cap_ : z.fill;
        uint64_t limit = z.finished ? zone_cap_ : z.fill;
        for (uint64_t off = 0; off < limit; ++off) {
            uint64_t stripe = off / (su * static_cast<uint64_t>(units));
            uint32_t u = (off % (su * units)) / su;
            if (chunk_dev(zone, stripe, u) == down)
                return off;
        }
        return limit;
    }
}

// ---------------------------------------------------------------------
// Submit plumbing
// ---------------------------------------------------------------------

void
ZonedEngine::chain_submit(uint32_t dev, uint32_t phys_zone, IoRequest req,
                          IoCallback cb)
{
    // The dev_submit span only opens once the chain dispatches the IO,
    // so a traced request would lose its chain-queue wait. Wrap traced
    // chunks in a request-track span covering enqueue -> completion;
    // request_coverage unions overlapping intervals, so the double
    // accounting with the device span is harmless.
    if (trace_ != nullptr && req.trace_req != 0) {
        uint64_t token = trace_->begin_span(
            "eng.chunk_chain", req.trace_req, obs::kTrackRequest,
            loop_->now());
        cb = [this, token, inner = std::move(cb)](IoResult r) {
            if (token != 0)
                trace_->end_span(token, loop_->now());
            inner(std::move(r));
        };
    }
    chains_[chain_key(dev, phys_zone)].q.emplace_back(std::move(req),
                                                     std::move(cb));
    chain_advance(dev, phys_zone);
}

void
ZonedEngine::chain_advance(uint32_t dev, uint32_t phys_zone)
{
    Chain &c = chains_[chain_key(dev, phys_zone)];
    if (c.busy || c.q.empty())
        return;
    c.busy = true;
    auto item = std::move(c.q.front());
    c.q.pop_front();
    dev_submit(dev, std::move(item.first),
               [this, dev, phys_zone, alive = alive_,
                cb = std::move(item.second)](IoResult r) {
                   cb(std::move(r));
                   if (!*alive)
                       return;
                   chains_[chain_key(dev, phys_zone)].busy = false;
                   chain_advance(dev, phys_zone);
               });
}

void
ZonedEngine::zone_enqueue(uint32_t zone,
                          std::function<void(std::function<void()>)> step)
{
    zones_[zone].wq.push_back(std::move(step));
    zone_advance(zone);
}

void
ZonedEngine::zone_advance(uint32_t zone)
{
    EZone &z = zones_[zone];
    if (z.wq_busy || z.wq.empty())
        return;
    if (rebuild_cur_zone_ == static_cast<int>(zone))
        return; // parked until the zone's rebuild pass completes
    z.wq_busy = true;
    auto step = std::move(z.wq.front());
    z.wq.pop_front();
    step([this, zone, alive = alive_] {
        if (!*alive)
            return;
        zones_[zone].wq_busy = false;
        zone_advance(zone);
    });
}

uint64_t
ZonedEngine::track_io()
{
    uint64_t id = next_io_id_++;
    inflight_ios_.insert(id);
    return id;
}

void
ZonedEngine::untrack_io(uint64_t id)
{
    inflight_ios_.erase(id);
    for (size_t i = 0; i < barriers_.size();) {
        barriers_[i]->waiting.erase(id);
        if (barriers_[i]->waiting.empty()) {
            std::shared_ptr<FlushBarrier> ready = barriers_[i];
            barriers_.erase(barriers_.begin() + i);
            issue_barrier_devices(std::move(ready));
        } else {
            ++i;
        }
    }
}

void
ZonedEngine::barrier_flush(IoCallback cb)
{
    auto b = std::make_shared<FlushBarrier>();
    b->waiting = inflight_ios_;
    b->cb = std::move(cb);
    if (b->waiting.empty()) {
        issue_barrier_devices(std::move(b));
        return;
    }
    barriers_.push_back(std::move(b));
}

void
ZonedEngine::issue_barrier_devices(std::shared_ptr<FlushBarrier> b)
{
    auto pending = std::make_shared<uint32_t>(0);
    auto st = std::make_shared<Status>();
    auto done = [this, b, st] {
        IoResult r;
        r.status = *st;
        b->cb(std::move(r));
    };
    for (uint32_t d = 0; d < num_devices(); ++d) {
        // Includes an in-progress rebuild target: already-rebuilt zones
        // take new writes on it, so acked-FUA durability must cover it.
        if (failed_devs_[d])
            continue;
        ++*pending;
        IoRequest req = IoRequest::flush();
        req.trace_stage = "eng.flush";
        req.cause = obs::Cause::kUserData;
        dev_submit(d, std::move(req),
                   [this, d, pending, st, done](IoResult r) {
                       if (!r.status.is_ok() &&
                           !(escalate_dev_error(d, r.status) &&
                             nfailed_ <= fault_tolerance())) {
                           if (st->is_ok())
                               *st = r.status;
                       }
                       if (--*pending == 0)
                           done();
                   });
    }
    if (*pending == 0) {
        *st = Status(StatusCode::kOffline, "no live members to flush");
        loop_->schedule_after(1, [done] { done(); });
    }
}

// ---------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------

std::vector<uint8_t>
ZonedEngine::encode_wal(const WalRecord &rec)
{
    std::vector<uint8_t> sector(kSectorSize, 0);
    uint8_t *p = sector.data();
    std::memcpy(p, &kWalMagic, 8);
    std::memcpy(p + 8, &rec.type, 4);
    std::memcpy(p + 12, &rec.zone, 4);
    std::memcpy(p + 16, &rec.gen, 8);
    std::memcpy(p + 24, &rec.kind, 4);
    std::memcpy(p + 28, &rec.participants, 8);
    uint32_t crc = crc32c(p, kWalCrcOff);
    std::memcpy(p + kWalCrcOff, &crc, 4);
    return sector;
}

bool
ZonedEngine::decode_wal(const uint8_t *sector, WalRecord *out)
{
    uint64_t magic = 0;
    std::memcpy(&magic, sector, 8);
    if (magic != kWalMagic)
        return false;
    uint32_t crc = 0;
    std::memcpy(&crc, sector + kWalCrcOff, 4);
    if (crc != crc32c(sector, kWalCrcOff))
        return false;
    std::memcpy(&out->type, sector + 8, 4);
    std::memcpy(&out->zone, sector + 12, 4);
    std::memcpy(&out->gen, sector + 16, 8);
    std::memcpy(&out->kind, sector + 24, 4);
    std::memcpy(&out->participants, sector + 28, 8);
    return true;
}

void
ZonedEngine::append_wal(WalRecord rec, StatusCb cb)
{
    PROF_SCOPE("eng.wal.append");
    if (wal_next_ >= wal_slots_) {
        loop_->schedule_after(1, [cb = std::move(cb)] {
            cb(Status(StatusCode::kNoSpace, "reset journal full"));
        });
        return;
    }
    const uint64_t slot = wal_next_++;
    auto pending = std::make_shared<uint32_t>(0);
    auto st = std::make_shared<Status>();
    auto shared_cb = std::make_shared<StatusCb>(std::move(cb));
    std::vector<uint8_t> payload = encode_wal(rec);
    for (uint32_t d = 0; d < num_devices(); ++d) {
        if (!dev_live(d))
            continue;
        ++*pending;
        IoRequest req = store_data_
            ? IoRequest::write(slot, payload, /*fua=*/true)
            : IoRequest::write_len(slot, 1, /*fua=*/true);
        req.trace_stage = "eng.wal";
        req.cause = obs::Cause::kWalMd;
        chain_submit(d, 0, std::move(req),
                     [this, d, pending, st, shared_cb](IoResult r) {
                         if (!r.status.is_ok() &&
                             !(escalate_dev_error(d, r.status) &&
                               nfailed_ <= fault_tolerance())) {
                             if (st->is_ok())
                                 *st = r.status;
                         }
                         if (--*pending == 0) {
                             if (st->is_ok())
                                 ++stats_.wal_appends;
                             (*shared_cb)(*st);
                         }
                     });
    }
    if (*pending == 0) {
        loop_->schedule_after(1, [shared_cb] {
            (*shared_cb)(
                Status(StatusCode::kOffline, "no live journal members"));
        });
    }
}

// ---------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------

void
ZonedEngine::write(uint64_t lba, std::vector<uint8_t> data,
                   WriteFlags flags, IoCallback cb)
{
    uint32_t n = static_cast<uint32_t>(data.size() / kSectorSize);
    write_internal(lba, std::move(data), n, flags, std::move(cb));
}

void
ZonedEngine::write_len(uint64_t lba, uint32_t nsectors, WriteFlags flags,
                       IoCallback cb)
{
    write_internal(lba, {}, nsectors, flags, std::move(cb));
}

void
ZonedEngine::write_internal(uint64_t lba, std::vector<uint8_t> data,
                            uint32_t nsectors, WriteFlags flags,
                            IoCallback cb)
{
    PROF_SCOPE("eng.write");
    ++stats_.logical_writes;
    stats_.sectors_written += nsectors;
    if (flags.fua)
        ++stats_.fua_writes;
    auto fail = [this, &cb](StatusCode code, const char *msg) {
        loop_->schedule_after(1, [cb = std::move(cb), code, msg] {
            IoResult r;
            r.status = Status(code, msg);
            cb(std::move(r));
        });
    };
    if (nsectors == 0 || lba + nsectors > capacity()) {
        fail(StatusCode::kInvalidArgument, "write out of range");
        return;
    }
    const uint32_t zone = static_cast<uint32_t>(lba / zone_cap_);
    const uint64_t off = lba % zone_cap_;
    if (off + nsectors > zone_cap_) {
        fail(StatusCode::kZoneBoundary, "write crosses a zone boundary");
        return;
    }
    EZone &z = zones_[zone];
    if (z.frozen) {
        fail(StatusCode::kReadOnly,
             "recovered zone is read-only until reset");
        return;
    }
    if (z.resetting) {
        fail(StatusCode::kBusy, "zone reset in progress");
        return;
    }
    if (z.finished || z.finish_pending) {
        fail(StatusCode::kNoSpace, "zone is finished");
        return;
    }
    if (off != z.fill) {
        fail(StatusCode::kWritePointerMismatch,
             "write not at the zone write pointer");
        return;
    }
    if (nfailed_ > fault_tolerance()) {
        fail(StatusCode::kOffline, "insufficient surviving members");
        return;
    }
    z.fill += nsectors;

    auto ctx = std::make_shared<WriteCtx>();
    ctx->flags = flags;
    ctx->nsectors = nsectors;
    ctx->cb = std::move(cb);
    ctx->t0 = loop_->now();
    if (trace_ != nullptr)
        ctx->req_id = trace_->next_request_id();
    auto dptr = std::make_shared<std::vector<uint8_t>>(std::move(data));
    zone_enqueue(zone, [this, zone, off, dptr, nsectors, flags,
                        ctx](std::function<void()> done) {
        auto proceed = [this, zone, off, dptr, nsectors, ctx, done] {
            decide_zone_kind(zone, [this, zone, off, dptr, nsectors, ctx,
                                    done](Status s) {
                if (!s.is_ok()) {
                    ctx->status = s;
                    ctx->issued_all = true;
                    if (ctx->pending == 0)
                        finish_write(ctx);
                    done();
                    return;
                }
                issue_write(zone, off, dptr, nsectors, ctx);
                done();
            });
        };
        if (flags.preflush) {
            barrier_flush([this, ctx, proceed, done](IoResult r) {
                if (!r.status.is_ok()) {
                    ctx->status = r.status;
                    ctx->issued_all = true;
                    if (ctx->pending == 0)
                        finish_write(ctx);
                    done();
                    return;
                }
                proceed();
            });
        } else {
            proceed();
        }
    });
}

void
ZonedEngine::decide_zone_kind(uint32_t zone,
                              std::function<void(Status)> cb)
{
    EZone &z = zones_[zone];
    if (z.kind_decided) {
        cb(Status::ok());
        return;
    }
    // Auto mode: hot zones (frequently reset) get mirrored, cold zones
    // get parity. The decision is journaled FUA before any data of the
    // generation hits media so mount can interpret the zone.
    ZoneKind k = z.gen >= cfg_.auto_hot_resets ? ZoneKind::kMirror
                                               : ZoneKind::kParity;
    z.kind = k;
    if (k == ZoneKind::kMirror)
        ++stats_.auto_mirror_zones;
    else
        ++stats_.auto_parity_zones;
    WalRecord rec;
    rec.type = WalRecord::kKind;
    rec.zone = zone;
    rec.gen = z.gen;
    rec.kind = static_cast<uint32_t>(k);
    append_wal(rec, [this, zone, cb = std::move(cb)](Status s) {
        if (s.is_ok())
            zones_[zone].kind_decided = true;
        cb(s);
    });
}

void
ZonedEngine::issue_write(uint32_t zone, uint64_t off,
                         std::shared_ptr<std::vector<uint8_t>> data,
                         uint32_t nsectors, std::shared_ptr<WriteCtx> ctx)
{
    // The total-write span opens here — after the per-zone queue wait
    // and the zone-kind decision — so its window is the issue-to-ack
    // path the chunk sub-spans can actually account for.
    if (trace_ != nullptr) {
        ctx->total_token = trace_->begin_span(
            "eng.write", ctx->req_id, obs::kTrackRequest, loop_->now());
    }
    EZone &z = zones_[zone];
    const bool store = store_data_ && !data->empty();
    const uint32_t su = cfg_.su_sectors;
    const uint32_t units = units_of(z.kind);
    auto submit_piece = [this, zone, ctx](uint32_t d, uint64_t row,
                                          std::vector<uint8_t> payload,
                                          uint32_t len) {
        IoRequest req = payload.empty()
            ? IoRequest::write_len(dev_row_lba(zone, row), len)
            : IoRequest::write(dev_row_lba(zone, row), std::move(payload));
        req.trace_stage = "eng.chunk_write";
        req.cause = ctx->flags.origin;
        req.trace_req = ctx->req_id;
        uint64_t id = track_io();
        ++ctx->pending;
        chain_submit(d, phys_zone(zone), std::move(req),
                     [this, ctx, d, id](IoResult r) {
                         untrack_io(id);
                         chunk_done(ctx, d, r.status);
                     });
    };

    if (z.kind == ZoneKind::kMirror) {
        bool any = false;
        for (uint32_t d = 0; d < num_devices(); ++d) {
            if (dev_down_for_zone(d, zone))
                continue;
            any = true;
            submit_piece(d, off, store ? *data : std::vector<uint8_t>{},
                         nsectors);
        }
        if (!any && ctx->status.is_ok())
            ctx->status =
                Status(StatusCode::kOffline, "no live mirror members");
    } else {
        uint64_t pos = off;
        size_t db = 0; // sectors consumed from `data`
        while (pos < off + nsectors) {
            const uint64_t stripe_sect = su * static_cast<uint64_t>(units);
            uint64_t stripe = pos / stripe_sect;
            uint64_t in_stripe = pos % stripe_sect;
            uint32_t u = static_cast<uint32_t>(in_stripe / su);
            uint64_t o = in_stripe % su;
            uint32_t len = static_cast<uint32_t>(
                std::min<uint64_t>(su - o, off + nsectors - pos));
            uint64_t row = stripe * su + o;
            if (z.kind == ZoneKind::kParity ||
                z.kind == ZoneKind::kDualParity)
                note_tail(zone, pos, len,
                          store ? data->data() + db * kSectorSize
                                : nullptr);
            for (uint32_t d : unit_devs(zone, stripe, u)) {
                if (dev_down_for_zone(d, zone)) {
                    if (z.kind == ZoneKind::kStripe0 &&
                        ctx->status.is_ok())
                        ctx->status = Status(StatusCode::kOffline,
                                             "raid0 member lost");
                    continue;
                }
                std::vector<uint8_t> slice;
                if (store) {
                    prof::count_alloc(static_cast<uint64_t>(len) *
                                      kSectorSize);
                    prof::count_copy(static_cast<uint64_t>(len) *
                                     kSectorSize);
                    slice.assign(
                        data->begin() + db * kSectorSize,
                        data->begin() + (db + len) * kSectorSize);
                }
                submit_piece(d, row, std::move(slice), len);
            }
            pos += len;
            db += len;
        }
    }
    if (store)
        note_written_crcs(zone, off, data->data(), nsectors);
    ctx->issued_all = true;
    if (ctx->pending == 0)
        finish_write(ctx);
}

void
ZonedEngine::note_tail(uint32_t zone, uint64_t pos, uint32_t n,
                       const uint8_t *bytes)
{
    EZone &z = zones_[zone];
    const uint32_t su = cfg_.su_sectors;
    const uint64_t stripe_sect =
        su * static_cast<uint64_t>(units_of(z.kind));
    uint64_t stripe = pos / stripe_sect;
    uint64_t in_stripe = pos % stripe_sect;
    TailBuf &t = z.tails[stripe];
    if (store_data_ && t.data.empty())
        t.data.assign(stripe_sect * kSectorSize, 0);
    if (bytes != nullptr && !t.data.empty())
        std::memcpy(t.data.data() + in_stripe * kSectorSize, bytes,
                    static_cast<size_t>(n) * kSectorSize);
    t.filled += n;
    if (t.filled == stripe_sect) {
        t.complete = true;
        complete_stripe(zone, stripe);
    }
}

void
ZonedEngine::complete_stripe(uint32_t zone, uint64_t stripe)
{
    PROF_SCOPE("eng.parity.compute");
    EZone &z = zones_[zone];
    TailBuf &t = z.tails[stripe];
    const uint32_t su = cfg_.su_sectors;
    const uint32_t units = units_of(z.kind);
    const size_t chunk_bytes = static_cast<size_t>(su) * kSectorSize;
    auto parity_cb = [this, zone, stripe](uint32_t d) {
        return [this, zone, stripe, d, alive = alive_](IoResult r) {
            if (!*alive)
                return;
            if (!r.status.is_ok())
                escalate_dev_error(d, r.status);
            // The tail served degraded reads until parity landed; it
            // can go once every issued parity write completed.
            EZone &ez = zones_[zone];
            auto it = ez.tails.find(stripe);
            if (it != ez.tails.end() &&
                --it->second.parity_pending == 0 && it->second.complete)
                ez.tails.erase(it);
        };
    };
    int pd = parity_dev(zone, stripe);
    if (pd >= 0 && !dev_down_for_zone(pd, zone)) {
        IoRequest req;
        if (store_data_) {
            std::vector<uint8_t> p(chunk_bytes, 0);
            for (uint32_t u = 0; u < units; ++u)
                xor_bytes(p.data(), t.data.data() + u * chunk_bytes,
                          chunk_bytes);
            req = IoRequest::write(dev_row_lba(zone, stripe * su),
                                   std::move(p));
        } else {
            req = IoRequest::write_len(dev_row_lba(zone, stripe * su), su);
        }
        req.trace_stage = "eng.parity";
        req.cause = obs::Cause::kParity;
        ++stats_.parity_writes;
        ++t.parity_pending;
        chain_submit(static_cast<uint32_t>(pd), phys_zone(zone),
                     std::move(req), parity_cb(pd));
    }
    int qd = q_dev(zone, stripe);
    if (qd >= 0 && !dev_down_for_zone(qd, zone)) {
        IoRequest req;
        if (store_data_) {
            std::vector<uint8_t> q(chunk_bytes, 0);
            for (uint32_t u = 0; u < units; ++u)
                gf256::accumulate(q.data(),
                                  t.data.data() + u * chunk_bytes,
                                  chunk_bytes, u);
            req = IoRequest::write(dev_row_lba(zone, stripe * su),
                                   std::move(q));
        } else {
            req = IoRequest::write_len(dev_row_lba(zone, stripe * su), su);
        }
        req.trace_stage = "eng.q_parity";
        req.cause = obs::Cause::kParity;
        ++stats_.q_parity_writes;
        ++t.parity_pending;
        chain_submit(static_cast<uint32_t>(qd), phys_zone(zone),
                     std::move(req), parity_cb(qd));
    }
    if (t.parity_pending == 0)
        z.tails.erase(stripe);
}

void
ZonedEngine::chunk_done(std::shared_ptr<WriteCtx> ctx, uint32_t dev,
                        const Status &s)
{
    if (!s.is_ok()) {
        bool now_failed = escalate_dev_error(dev, s);
        if (!(now_failed && nfailed_ <= fault_tolerance()) &&
            ctx->status.is_ok())
            ctx->status = s;
    }
    if (--ctx->pending == 0 && ctx->issued_all)
        finish_write(ctx);
}

void
ZonedEngine::finish_write(std::shared_ptr<WriteCtx> ctx)
{
    auto ack = [this, ctx](Status s) {
        IoResult r;
        r.status = std::move(s);
        if (write_lat_ != nullptr)
            write_lat_->record(loop_->now() - ctx->t0);
        if (ledger_ != nullptr && r.status.is_ok() &&
            ctx->flags.origin == obs::Cause::kUserData)
            ledger_->note_user_write(ctx->nsectors);
        if (trace_ != nullptr && ctx->total_token != 0) {
            trace_->end_span(ctx->total_token, loop_->now());
            ctx->total_token = 0;
        }
        ctx->cb(std::move(r));
    };
    if (!ctx->status.is_ok()) {
        loop_->schedule_after(1, [ack, ctx] { ack(ctx->status); });
        return;
    }
    if (ctx->flags.fua) {
        // A FUA ack promises the whole logical prefix durable; chunks
        // of earlier writes live on other members' caches, so FUA is
        // completed as write + dependency flush (cf. RAIZN §5.1).
        ++stats_.fua_dependency_flushes;
        barrier_flush([ack](IoResult r) { ack(r.status); });
        return;
    }
    loop_->schedule_after(1, [ack] { ack(Status::ok()); });
}

void
ZonedEngine::note_written_crcs(uint32_t zone, uint64_t off,
                               const uint8_t *bytes, uint32_t nsectors)
{
    EZone &z = zones_[zone];
    if (z.crcs.empty()) {
        z.crcs.assign(zone_cap_, 0);
        z.crc_valid.assign(zone_cap_, false);
    }
    for (uint32_t i = 0; i < nsectors; ++i) {
        z.crcs[off + i] =
            crc32c(bytes + static_cast<size_t>(i) * kSectorSize,
                   kSectorSize);
        z.crc_valid[off + i] = true;
    }
}

// ---------------------------------------------------------------------
// Flush / reset / finish
// ---------------------------------------------------------------------

void
ZonedEngine::flush(IoCallback cb)
{
    ++stats_.flushes;
    barrier_flush(std::move(cb));
}

void
ZonedEngine::reset_zone(uint32_t zone, IoCallback cb)
{
    if (zone >= nzones_) {
        loop_->schedule_after(1, [cb = std::move(cb)] {
            IoResult r;
            r.status =
                Status(StatusCode::kInvalidArgument, "zone out of range");
            cb(std::move(r));
        });
        return;
    }
    auto shared_cb = std::make_shared<IoCallback>(std::move(cb));
    zone_enqueue(zone, [this, zone,
                        shared_cb](std::function<void()> done) {
        EZone &z = zones_[zone];
        auto ack_sched = [this, shared_cb, done](Status s) {
            loop_->schedule_after(1, [shared_cb, s = std::move(s)] {
                IoResult r;
                r.status = s;
                (*shared_cb)(std::move(r));
            });
            done();
        };
        if (rebuilding_) {
            ack_sched(Status(StatusCode::kBusy, "rebuild in progress"));
            return;
        }
        if (z.fill == 0 && !z.finished && !z.finish_pending) {
            ack_sched(Status::ok()); // empty zone: reset is a no-op
            return;
        }
        z.resetting = true;
        const uint64_t newgen = z.gen + 1;
        WalRecord intent;
        intent.type = WalRecord::kResetIntent;
        intent.zone = zone;
        intent.gen = newgen;
        append_wal(intent, [this, zone, newgen, shared_cb,
                            done](Status s) {
            if (!s.is_ok()) {
                zones_[zone].resetting = false;
                loop_->schedule_after(1, [shared_cb, s] {
                    IoResult r;
                    r.status = s;
                    (*shared_cb)(std::move(r));
                });
                done();
                return;
            }
            // Intent is durable everywhere; physically reset the zone
            // on every non-failed member (this also cures staleness).
            uint64_t parts = 0;
            auto pending = std::make_shared<uint32_t>(0);
            auto st = std::make_shared<Status>();
            for (uint32_t d = 0; d < num_devices(); ++d)
                if (!failed_devs_[d])
                    parts |= bit(d);
            auto after = [this, zone, newgen, parts, st, shared_cb,
                          done] {
                if (!st->is_ok()) {
                    zones_[zone].resetting = false;
                    IoResult r;
                    r.status = *st;
                    (*shared_cb)(std::move(r));
                    done();
                    return;
                }
                WalRecord drec;
                drec.type = WalRecord::kResetDone;
                drec.zone = zone;
                drec.gen = newgen;
                drec.participants = parts;
                append_wal(drec, [this, zone, newgen, parts, shared_cb,
                                  done](Status s2) {
                    EZone &ez = zones_[zone];
                    ez.resetting = false;
                    if (!s2.is_ok()) {
                        IoResult r;
                        r.status = s2;
                        (*shared_cb)(std::move(r));
                        done();
                        return;
                    }
                    ez.fill = 0;
                    ez.gen = newgen;
                    ez.finished = false;
                    ez.finish_pending = false;
                    ez.frozen = false;
                    ez.tails.clear();
                    ez.crcs.clear();
                    ez.crc_valid.clear();
                    ez.rec_fill.clear();
                    ez.participants = parts;
                    ez.kind = fixed_kind();
                    ez.kind_decided = cfg_.mode != RaidMode::kAuto;
                    ++stats_.zone_resets;
                    IoResult r;
                    (*shared_cb)(std::move(r));
                    done();
                });
            };
            for (uint32_t d = 0; d < num_devices(); ++d) {
                if (failed_devs_[d])
                    continue;
                ++*pending;
                IoRequest req = IoRequest::zone_reset(
                    static_cast<uint64_t>(zone + 1) *
                    devs_[0]->geometry().zone_size);
                req.trace_stage = "eng.zone_reset";
                req.cause = obs::Cause::kZoneMgmt;
                chain_submit(d, phys_zone(zone), std::move(req),
                             [this, d, pending, st, after](IoResult r) {
                                 if (!r.status.is_ok() &&
                                     !(escalate_dev_error(d, r.status) &&
                                       nfailed_ <= fault_tolerance())) {
                                     if (st->is_ok())
                                         *st = r.status;
                                 }
                                 if (--*pending == 0)
                                     after();
                             });
            }
            if (*pending == 0) {
                *st = Status(StatusCode::kOffline, "no live members");
                loop_->schedule_after(1, [after] { after(); });
            }
        });
    });
}

void
ZonedEngine::finish_zone(uint32_t zone, IoCallback cb)
{
    if (zone >= nzones_) {
        loop_->schedule_after(1, [cb = std::move(cb)] {
            IoResult r;
            r.status =
                Status(StatusCode::kInvalidArgument, "zone out of range");
            cb(std::move(r));
        });
        return;
    }
    auto shared_cb = std::make_shared<IoCallback>(std::move(cb));
    zone_enqueue(zone, [this, zone,
                        shared_cb](std::function<void()> done) {
        EZone &z = zones_[zone];
        auto ack_sched = [this, shared_cb, done](Status s) {
            loop_->schedule_after(1, [shared_cb, s = std::move(s)] {
                IoResult r;
                r.status = s;
                (*shared_cb)(std::move(r));
            });
            done();
        };
        if (z.finished) {
            ack_sched(Status::ok());
            return;
        }
        if (z.frozen) {
            ack_sched(Status(StatusCode::kReadOnly,
                             "recovered zone is read-only until reset"));
            return;
        }
        if (rebuilding_) {
            ack_sched(Status(StatusCode::kBusy, "rebuild in progress"));
            return;
        }
        z.finish_pending = true;
        auto pending = std::make_shared<uint32_t>(0);
        auto st = std::make_shared<Status>();
        auto after = [this, zone, st, shared_cb, done] {
            EZone &ez = zones_[zone];
            ez.finish_pending = false;
            if (st->is_ok()) {
                ez.finished = true;
                ez.fill = zone_cap_;
                ++stats_.zone_finishes;
            }
            IoResult r;
            r.status = *st;
            (*shared_cb)(std::move(r));
            done();
        };
        // A finished zone is fully redundant on media: the device-level
        // finish pads every data row with zeros, so the open tail
        // stripe's parity must be sealed as if the stripe were
        // zero-padded to full width. The per-device submit chains keep
        // each seal row ahead of that member's finish command.
        const uint32_t su = cfg_.su_sectors;
        const uint32_t units = units_of(z.kind);
        const size_t chunk_bytes = static_cast<size_t>(su) * kSectorSize;
        for (auto it = z.tails.begin(); it != z.tails.end();) {
            TailBuf &t = it->second;
            if (t.complete) {
                ++it;
                continue;
            }
            const uint64_t stripe = it->first;
            auto seal_cb = [this, zone, stripe, pending, st,
                            after](uint32_t d) {
                return [this, zone, stripe, d, pending, st,
                        after](IoResult r) {
                    if (!r.status.is_ok() &&
                        !(escalate_dev_error(d, r.status) &&
                          nfailed_ <= fault_tolerance())) {
                        if (st->is_ok())
                            *st = r.status;
                    }
                    EZone &ez = zones_[zone];
                    auto ti = ez.tails.find(stripe);
                    if (ti != ez.tails.end() &&
                        --ti->second.parity_pending == 0)
                        ez.tails.erase(ti);
                    if (--*pending == 0)
                        after();
                };
            };
            int pd = parity_dev(zone, stripe);
            if (pd >= 0 && !dev_down_for_zone(pd, zone)) {
                IoRequest req;
                if (store_data_) {
                    std::vector<uint8_t> p(chunk_bytes, 0);
                    for (uint32_t u = 0; u < units; ++u)
                        xor_bytes(p.data(),
                                  t.data.data() + u * chunk_bytes,
                                  chunk_bytes);
                    req = IoRequest::write(dev_row_lba(zone, stripe * su),
                                           std::move(p));
                } else {
                    req = IoRequest::write_len(
                        dev_row_lba(zone, stripe * su), su);
                }
                req.trace_stage = "eng.parity_seal";
                req.cause = obs::Cause::kParity;
                ++stats_.parity_writes;
                ++t.parity_pending;
                ++*pending;
                chain_submit(static_cast<uint32_t>(pd), phys_zone(zone),
                             std::move(req), seal_cb(pd));
            }
            int qd = q_dev(zone, stripe);
            if (qd >= 0 && !dev_down_for_zone(qd, zone)) {
                IoRequest req;
                if (store_data_) {
                    std::vector<uint8_t> q(chunk_bytes, 0);
                    for (uint32_t u = 0; u < units; ++u)
                        gf256::accumulate(q.data(),
                                          t.data.data() + u * chunk_bytes,
                                          chunk_bytes, u);
                    req = IoRequest::write(dev_row_lba(zone, stripe * su),
                                           std::move(q));
                } else {
                    req = IoRequest::write_len(
                        dev_row_lba(zone, stripe * su), su);
                }
                req.trace_stage = "eng.q_seal";
                req.cause = obs::Cause::kParity;
                ++stats_.q_parity_writes;
                ++t.parity_pending;
                ++*pending;
                chain_submit(static_cast<uint32_t>(qd), phys_zone(zone),
                             std::move(req), seal_cb(qd));
            }
            if (t.parity_pending == 0) {
                it = z.tails.erase(it); // no live parity member to seal
            } else {
                t.complete = true; // retired once the seal writes ack
                ++it;
            }
        }
        for (uint32_t d = 0; d < num_devices(); ++d) {
            if (failed_devs_[d])
                continue;
            ++*pending;
            IoRequest req = IoRequest::zone_finish(
                static_cast<uint64_t>(zone + 1) *
                devs_[0]->geometry().zone_size);
            req.trace_stage = "eng.zone_finish";
            req.cause = obs::Cause::kZoneMgmt;
            chain_submit(d, phys_zone(zone), std::move(req),
                         [this, d, pending, st, after](IoResult r) {
                             if (!r.status.is_ok() &&
                                 !(escalate_dev_error(d, r.status) &&
                                   nfailed_ <= fault_tolerance())) {
                                 if (st->is_ok())
                                     *st = r.status;
                             }
                             if (--*pending == 0)
                                 after();
                         });
        }
        if (*pending == 0) {
            *st = Status(StatusCode::kOffline, "no live members");
            loop_->schedule_after(1, [after] { after(); });
        }
    });
}

// ---------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------

void
ZonedEngine::read(uint64_t lba, uint32_t nsectors, IoCallback cb)
{
    PROF_SCOPE("eng.read");
    ++stats_.logical_reads;
    stats_.sectors_read += nsectors;
    if (ledger_ != nullptr) {
        cb = [this, nsectors, inner = std::move(cb)](IoResult r) {
            if (r.status.is_ok())
                ledger_->note_user_read(nsectors);
            inner(std::move(r));
        };
    }
    if (nsectors == 0 || lba + nsectors > capacity()) {
        loop_->schedule_after(1, [cb = std::move(cb)] {
            IoResult r;
            r.status =
                Status(StatusCode::kInvalidArgument, "read out of range");
            cb(std::move(r));
        });
        return;
    }
    struct Agg {
        std::vector<std::vector<uint8_t>> parts;
        uint32_t pending = 0;
        Status status;
        Tick t0 = 0;
        IoCallback cb;
    };
    auto agg = std::make_shared<Agg>();
    agg->t0 = loop_->now();
    agg->cb = std::move(cb);
    struct Seg {
        uint32_t zone;
        uint64_t off;
        uint32_t len;
    };
    std::vector<Seg> segs;
    uint64_t pos = lba;
    uint32_t left = nsectors;
    while (left > 0) {
        uint32_t zone = static_cast<uint32_t>(pos / zone_cap_);
        uint64_t off = pos % zone_cap_;
        uint32_t len = static_cast<uint32_t>(
            std::min<uint64_t>(zone_cap_ - off, left));
        segs.push_back({zone, off, len});
        pos += len;
        left -= len;
    }
    agg->parts.resize(segs.size());
    agg->pending = static_cast<uint32_t>(segs.size());
    for (size_t i = 0; i < segs.size(); ++i) {
        read_segment(segs[i].zone, segs[i].off, segs[i].len,
                     [this, agg, i](Status s, std::vector<uint8_t> d) {
                         if (!s.is_ok() && agg->status.is_ok())
                             agg->status = s;
                         agg->parts[i] = std::move(d);
                         if (--agg->pending > 0)
                             return;
                         IoResult r;
                         r.status = agg->status;
                         if (store_data_ && r.status.is_ok()) {
                             for (auto &p : agg->parts)
                                 r.data.insert(r.data.end(), p.begin(),
                                               p.end());
                         }
                         if (read_lat_ != nullptr)
                             read_lat_->record(loop_->now() - agg->t0);
                         agg->cb(std::move(r));
                     });
    }
}

void
ZonedEngine::read_segment(uint32_t zone, uint64_t off, uint32_t len,
                          DataCb cb)
{
    EZone &z = zones_[zone];
    const uint64_t limit = z.finished ? zone_cap_ : z.fill;
    if (off + len > limit) {
        loop_->schedule_after(1, [cb = std::move(cb)] {
            cb(Status(StatusCode::kInvalidArgument,
                      "read beyond the zone write pointer"),
               {});
        });
        return;
    }
    if (z.kind == ZoneKind::kMirror) {
        std::vector<uint32_t> cands(num_devices());
        for (uint32_t d = 0; d < num_devices(); ++d)
            cands[d] = d;
        auto srcs = std::make_shared<std::vector<uint32_t>>(
            mirror_sources(zone, off + len, cands));
        if (srcs->empty()) {
            loop_->schedule_after(1, [cb = std::move(cb)] {
                cb(Status(StatusCode::kOffline, "no live mirror source"),
                   {});
            });
            return;
        }
        read_mirror(zone, off, len, std::move(srcs), 0, std::move(cb));
        return;
    }
    // Striped kinds: fan out per chunk piece and reassemble in order.
    struct Piece {
        uint64_t stripe;
        uint32_t u;
        uint64_t o;
        uint32_t n;
    };
    std::vector<Piece> pieces;
    const uint32_t su = cfg_.su_sectors;
    const uint64_t stripe_sect =
        su * static_cast<uint64_t>(units_of(z.kind));
    uint64_t pos = off;
    while (pos < off + len) {
        uint64_t stripe = pos / stripe_sect;
        uint64_t in_stripe = pos % stripe_sect;
        uint32_t u = static_cast<uint32_t>(in_stripe / su);
        uint64_t o = in_stripe % su;
        uint32_t n = static_cast<uint32_t>(
            std::min<uint64_t>(su - o, off + len - pos));
        pieces.push_back({stripe, u, o, n});
        pos += n;
    }
    struct SubAgg {
        std::vector<std::vector<uint8_t>> parts;
        uint32_t pending = 0;
        Status status;
        DataCb cb;
    };
    auto agg = std::make_shared<SubAgg>();
    agg->parts.resize(pieces.size());
    agg->pending = static_cast<uint32_t>(pieces.size());
    agg->cb = std::move(cb);
    for (size_t i = 0; i < pieces.size(); ++i) {
        const Piece &p = pieces[i];
        read_chunk(zone, p.stripe, p.u, p.o, p.n,
                   [this, agg, i](Status s, std::vector<uint8_t> d) {
                       if (!s.is_ok() && agg->status.is_ok())
                           agg->status = s;
                       agg->parts[i] = std::move(d);
                       if (--agg->pending > 0)
                           return;
                       std::vector<uint8_t> out;
                       if (store_data_ && agg->status.is_ok())
                           for (auto &part : agg->parts)
                               out.insert(out.end(), part.begin(),
                                          part.end());
                       agg->cb(agg->status, std::move(out));
                   });
    }
}

std::vector<uint32_t>
ZonedEngine::mirror_sources(uint32_t zone, uint64_t row_end,
                            const std::vector<uint32_t> &cands) const
{
    const EZone &z = zones_[zone];
    std::vector<uint32_t> out;
    for (uint32_t d : cands) {
        if (dev_down_for_zone(d, zone))
            continue;
        if (!z.rec_fill.empty() && z.rec_fill[d] < row_end)
            continue;
        out.push_back(d);
    }
    return out;
}

void
ZonedEngine::read_mirror(uint32_t zone, uint64_t off, uint32_t len,
                         std::shared_ptr<std::vector<uint32_t>> srcs,
                         size_t idx, DataCb cb)
{
    if (idx >= srcs->size()) {
        cb(Status(StatusCode::kCorruption,
                  "all mirror copies failed validation"),
           {});
        return;
    }
    uint32_t d = (*srcs)[idx];
    IoRequest req = IoRequest::read(dev_row_lba(zone, off), len);
    req.trace_stage = "eng.mirror_read";
    req.cause = obs::Cause::kUserData;
    chain_submit(
        d, phys_zone(zone), std::move(req),
        [this, zone, off, len, srcs, idx, d,
         cb = std::move(cb)](IoResult r) mutable {
            if (!r.status.is_ok()) {
                escalate_dev_error(d, r.status);
                read_mirror(zone, off, len, std::move(srcs), idx + 1,
                            std::move(cb));
                return;
            }
            if (store_data_ &&
                !crc_range_ok(zone, off, r.data.data(), len)) {
                ++stats_.crc_mismatches;
                if (idx + 1 < srcs->size()) {
                    ++stats_.read_repairs;
                    read_mirror(zone, off, len, std::move(srcs), idx + 1,
                                std::move(cb));
                    return;
                }
                cb(Status(StatusCode::kCorruption,
                          "mirror copy failed checksum"),
                   {});
                return;
            }
            cb(Status::ok(), std::move(r.data));
        });
}

void
ZonedEngine::read_chunk(uint32_t zone, uint64_t stripe, uint32_t u,
                        uint64_t o, uint32_t n, DataCb cb)
{
    EZone &z = zones_[zone];
    const uint32_t su = cfg_.su_sectors;
    const uint64_t row0 = stripe * su + o;
    std::vector<uint32_t> live =
        mirror_sources(zone, row0 + n, unit_devs(zone, stripe, u));
    const bool parity_kind = z.kind == ZoneKind::kParity ||
                             z.kind == ZoneKind::kDualParity;
    if (live.empty()) {
        ++stats_.degraded_reads;
        // Open-stripe data whose parity never reached media is served
        // from the in-memory tail (RAIZN closes this hole durably with
        // the partial-parity log; the engine only covers runtime).
        auto it = z.tails.find(stripe);
        const uint64_t in_stripe = static_cast<uint64_t>(u) * su + o;
        if (parity_kind && it != z.tails.end() && store_data_ &&
            !it->second.data.empty() &&
            in_stripe + n <= it->second.filled) {
            std::vector<uint8_t> out(
                it->second.data.begin() + in_stripe * kSectorSize,
                it->second.data.begin() + (in_stripe + n) * kSectorSize);
            loop_->schedule_after(1, [cb = std::move(cb),
                                      out = std::move(out)]() mutable {
                cb(Status::ok(), std::move(out));
            });
            return;
        }
        if (parity_kind) {
            stats_.reconstructed_sectors += n;
            reconstruct_chunk(zone, stripe, u, o, n, std::move(cb));
            return;
        }
        loop_->schedule_after(1, [cb = std::move(cb)] {
            cb(Status(StatusCode::kOffline, "data unit lost"), {});
        });
        return;
    }
    // Try each live replica; parity kinds fall back to reconstruction
    // when every replica errors or fails its checksum.
    auto attempt = std::make_shared<std::function<void(size_t)>>();
    auto srcs = std::make_shared<std::vector<uint32_t>>(std::move(live));
    auto shared_cb = std::make_shared<DataCb>(std::move(cb));
    // The recursive closure holds only a weak reference to itself;
    // each in-flight completion pins a strong one, so the function is
    // destroyed (no cycle) as soon as the last completion runs.
    std::weak_ptr<std::function<void(size_t)>> wattempt = attempt;
    *attempt = [this, zone, stripe, u, o, n, row0, srcs, shared_cb,
                parity_kind, wattempt](size_t idx) {
        EZone &ez = zones_[zone];
        if (idx >= srcs->size()) {
            if (parity_kind) {
                ++stats_.read_repairs;
                stats_.reconstructed_sectors += n;
                reconstruct_chunk(zone, stripe, u, o, n,
                                  [shared_cb](Status s,
                                              std::vector<uint8_t> d) {
                                      (*shared_cb)(s, std::move(d));
                                  });
                return;
            }
            (*shared_cb)(Status(StatusCode::kCorruption,
                                "data unit failed validation"),
                         {});
            return;
        }
        uint32_t d = (*srcs)[idx];
        IoRequest req = IoRequest::read(dev_row_lba(zone, row0), n);
        req.trace_stage = "eng.chunk_read";
        req.cause = obs::Cause::kUserData;
        const uint64_t crc_off =
            stripe * cfg_.su_sectors *
                static_cast<uint64_t>(units_of(ez.kind)) +
            static_cast<uint64_t>(u) * cfg_.su_sectors + o;
        auto self = wattempt.lock(); // caller holds a strong ref
        chain_submit(d, phys_zone(zone), std::move(req),
                     [this, zone, d, idx, crc_off, n, shared_cb,
                      self](IoResult r) {
                         if (!r.status.is_ok()) {
                             escalate_dev_error(d, r.status);
                             (*self)(idx + 1);
                             return;
                         }
                         if (store_data_ &&
                             !crc_range_ok(zone, crc_off, r.data.data(),
                                           n)) {
                             ++stats_.crc_mismatches;
                             (*self)(idx + 1);
                             return;
                         }
                         if (idx > 0)
                             ++stats_.read_repairs;
                         (*shared_cb)(Status::ok(), std::move(r.data));
                     });
    };
    (*attempt)(0);
}

void
ZonedEngine::reconstruct_chunk(uint32_t zone, uint64_t stripe, uint32_t u,
                               uint64_t o, uint32_t n, DataCb cb)
{
    EZone &z = zones_[zone];
    if (!store_data_) {
        loop_->schedule_after(1,
                              [cb = std::move(cb)] { cb(Status::ok(), {}); });
        return;
    }
    const uint32_t su = cfg_.su_sectors;
    const uint32_t units = units_of(z.kind);
    const uint64_t row0 = stripe * su + o;
    auto avail_rows = [this, &z, zone, row0, n](uint32_t d) {
        return !dev_down_for_zone(d, zone) &&
               (z.rec_fill.empty() || z.rec_fill[d] >= row0 + n);
    };
    std::vector<uint32_t> missing{u};
    std::vector<uint32_t> have;
    for (uint32_t v = 0; v < units; ++v) {
        if (v == u)
            continue;
        if (avail_rows(chunk_dev(zone, stripe, v)))
            have.push_back(v);
        else
            missing.push_back(v);
    }
    int pd = parity_dev(zone, stripe);
    int qd = q_dev(zone, stripe);
    bool p_ok = pd >= 0 && avail_rows(static_cast<uint32_t>(pd));
    bool q_ok = qd >= 0 && avail_rows(static_cast<uint32_t>(qd));
    char plan;
    if (missing.size() == 1 && p_ok)
        plan = 'P';
    else if (missing.size() == 1 && q_ok)
        plan = 'Q';
    else if (missing.size() == 2 && p_ok && q_ok)
        plan = '2';
    else {
        loop_->schedule_after(1, [cb = std::move(cb)] {
            cb(Status(StatusCode::kIoError,
                      "insufficient redundancy to reconstruct"),
               {});
        });
        return;
    }
    struct Recon {
        std::map<uint32_t, std::vector<uint8_t>> data; // unit -> bytes
        std::vector<uint8_t> p, q;
        uint32_t pending = 0;
        Status status;
    };
    auto rc = std::make_shared<Recon>();
    auto shared_cb = std::make_shared<DataCb>(std::move(cb));
    const size_t bytes = static_cast<size_t>(n) * kSectorSize;
    auto complete = [this, zone, stripe, u, o, n, su, units, plan, bytes,
                     missing, rc, shared_cb] {
        if (!rc->status.is_ok()) {
            (*shared_cb)(rc->status, {});
            return;
        }
        // rc is this completion's alone: P and Q are reduced in place.
        std::vector<uint8_t> res;
        if (plan == 'P') {
            res = std::move(rc->p);
            for (auto &kv : rc->data)
                xor_bytes(res.data(), kv.second.data(), bytes);
        } else if (plan == 'Q') {
            // D_u = g^-u * (Q ^ sum over the other units of g^v * D_v).
            for (auto &kv : rc->data)
                gf256::accumulate(rc->q.data(), kv.second.data(), bytes,
                                  kv.first);
            res.assign(bytes, 0);
            gf256::accumulate(res.data(), rc->q.data(), bytes,
                              255u - (u % 255u));
        } else {
            uint32_t x = std::min(missing[0], missing[1]);
            uint32_t y = std::max(missing[0], missing[1]);
            for (auto &kv : rc->data) {
                xor_bytes(rc->p.data(), kv.second.data(), bytes);
                gf256::accumulate(rc->q.data(), kv.second.data(), bytes,
                                  kv.first);
            }
            res.resize(bytes);
            gf256::solve_two(u == x ? res.data() : nullptr,
                             u == x ? nullptr : res.data(), rc->p.data(),
                             rc->q.data(), bytes, x, y);
        }
        uint64_t crc_off = stripe * su * static_cast<uint64_t>(units) +
                           static_cast<uint64_t>(u) * su + o;
        if (!crc_range_ok(zone, crc_off, res.data(), n)) {
            ++stats_.crc_mismatches;
            (*shared_cb)(Status(StatusCode::kCorruption,
                                "reconstructed data failed checksum"),
                         {});
            return;
        }
        (*shared_cb)(Status::ok(), std::move(res));
    };
    auto submit_read =
        [this, zone, row0, n, rc, complete](
            uint32_t d, std::function<void(std::vector<uint8_t>)> sink) {
            ++rc->pending;
            IoRequest req = IoRequest::read(dev_row_lba(zone, row0), n);
            req.trace_stage = "eng.reconstruct_read";
            req.cause = obs::Cause::kParity;
            chain_submit(d, phys_zone(zone), std::move(req),
                         [this, d, rc, sink = std::move(sink),
                          complete](IoResult r) {
                             if (!r.status.is_ok()) {
                                 escalate_dev_error(d, r.status);
                                 if (rc->status.is_ok())
                                     rc->status = r.status;
                             } else {
                                 sink(std::move(r.data));
                             }
                             if (--rc->pending == 0)
                                 complete();
                         });
        };
    for (uint32_t v : have)
        submit_read(chunk_dev(zone, stripe, v),
                    [rc, v](std::vector<uint8_t> d) {
                        rc->data[v] = std::move(d);
                    });
    if (plan == 'P' || plan == '2')
        submit_read(static_cast<uint32_t>(pd),
                    [rc](std::vector<uint8_t> d) { rc->p = std::move(d); });
    if (plan == 'Q' || plan == '2')
        submit_read(static_cast<uint32_t>(qd),
                    [rc](std::vector<uint8_t> d) { rc->q = std::move(d); });
}

// ---------------------------------------------------------------------
// Failure management / observability
// ---------------------------------------------------------------------

void
ZonedEngine::mark_device_failed(uint32_t dev)
{
    if (dev >= num_devices() || failed_devs_[dev])
        return;
    failed_devs_[dev] = true;
    ++nfailed_;
    LOG_WARN("%s: member %u marked failed (%u failed, tolerance %u)",
             metric_prefix().c_str(), dev, nfailed_, fault_tolerance());
    maybe_start_auto_rebuild(dev);
}

int
ZonedEngine::failed_device() const
{
    for (uint32_t d = 0; d < num_devices(); ++d)
        if (failed_devs_[d])
            return static_cast<int>(d);
    return -1;
}

void
ZonedEngine::link_stats_hook(obs::MetricsRegistry &reg)
{
    obs::link_stats(reg, metric_prefix(), stats_);
}

bool
ZonedEngine::crc_range_ok(uint32_t zone, uint64_t off,
                          const uint8_t *bytes, uint32_t nsectors) const
{
    if (!store_data_)
        return true;
    const EZone &z = zones_[zone];
    if (z.crcs.empty())
        return true;
    for (uint32_t i = 0; i < nsectors; ++i) {
        if (!z.crc_valid[off + i])
            continue;
        if (crc32c(bytes + static_cast<size_t>(i) * kSectorSize,
                   kSectorSize) != z.crcs[off + i])
            return false;
    }
    return true;
}

} // namespace raizn
