#include "raizn/md_manager.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/logging.h"
#include "sim/event_loop.h"

namespace raizn {

MdManager::MdManager(EventLoop *loop, const Layout *layout,
                     std::vector<BlockDevice *> devs)
    : loop_(loop), layout_(layout), devs_(std::move(devs))
{
    dev_state_.resize(devs_.size());
    for (auto &st : dev_state_) {
        st.wp.assign(layout_->md_zones(), 0);
    }
}

std::vector<uint8_t>
MdManager::encode(const MdAppend &entry) const
{
    return encode_md_entry(entry.header, entry.inline_data, entry.payload);
}

obs::Cause
MdManager::cause_of(MdZoneRole role, MdType type)
{
    if (role == MdZoneRole::kParityLog)
        return obs::Cause::kPpLog;
    switch (type) {
      case MdType::kPartialParity:
        return obs::Cause::kPpLog;
      case MdType::kRelocatedSu:
        return obs::Cause::kRelocation;
      case MdType::kZoneRebuildLog:
      case MdType::kRebuildCheckpoint:
        return obs::Cause::kRebuild;
      default:
        return obs::Cause::kWalMd;
    }
}

Status
MdManager::format_device(uint32_t dev)
{
    flush_parked(dev);
    DevState &st = dev_state_[dev];
    st = DevState{};
    st.wp.assign(layout_->md_zones(), 0);
    for (uint32_t i = 0; i < layout_->md_zones(); ++i) {
        IoRequest rst = IoRequest::zone_reset(md_zone_pba(i));
        rst.cause = obs::Cause::kWalMd;
        auto res = submit_sync(*loop_, *devs_[dev], std::move(rst));
        if (!res.status.is_ok())
            return res.status;
    }
    // Bind zone 0 = general log, zone 1 = parity log; the rest are
    // swap zones.
    for (uint32_t role = 0; role < kNumRoles; ++role) {
        MdAppend rec;
        rec.header.type = MdType::kZoneRole;
        rec.inline_data = encode_zone_role(
            {static_cast<MdZoneRole>(role), st.next_epoch});
        auto bytes = encode(rec);
        IoRequest app = IoRequest::append(md_zone_pba(role),
                                          std::move(bytes), /*fua=*/true);
        app.cause = obs::Cause::kWalMd;
        auto res = submit_sync(*loop_, *devs_[dev], std::move(app));
        if (!res.status.is_ok())
            return res.status;
        st.role_zone[role] = static_cast<int>(role);
        st.wp[role] = 1;
        st.sectors_written += 1;
    }
    st.next_epoch++;
    for (uint32_t i = kNumRoles; i < layout_->md_zones(); ++i)
        st.swap.push_back(i);
    return Status::ok();
}

Status
MdManager::format()
{
    for (uint32_t d = 0; d < devs_.size(); ++d) {
        Status st = format_device(d);
        if (!st)
            return st;
    }
    return Status::ok();
}

uint64_t
MdManager::active_zone_wp(uint32_t dev, MdZoneRole role) const
{
    const DevState &st = dev_state_[dev];
    int zi = st.role_zone[static_cast<uint32_t>(role)];
    assert(zi >= 0);
    return md_zone_pba(static_cast<uint32_t>(zi)) +
        st.wp[static_cast<uint32_t>(zi)];
}

void
MdManager::md_submit(uint32_t dev, IoRequest req, IoCallback cb)
{
    if (retrier_) {
        retrier_->submit(devs_[dev], dev, std::move(req), std::move(cb));
        return;
    }
    devs_[dev]->submit(std::move(req), std::move(cb));
}

void
MdManager::do_append(uint32_t dev, uint32_t zone_idx,
                     std::vector<uint8_t> bytes, bool durable,
                     obs::Cause cause, StatusCb cb)
{
    DevState &st = dev_state_[dev];
    uint64_t sectors = bytes.size() / kSectorSize;
    st.wp[zone_idx] += sectors;
    st.sectors_written += sectors;
    IoRequest req = IoRequest::append(md_zone_pba(zone_idx),
                                      std::move(bytes), durable);
    req.cause = cause;
    md_submit(dev, std::move(req),
              [cb = std::move(cb)](IoResult r) { cb(r.status); });
}

void
MdManager::gc_switch(uint32_t dev, MdZoneRole role, StatusCb done)
{
    DevState &st = dev_state_[dev];
    uint32_t role_idx = static_cast<uint32_t>(role);
    int old_zone = st.role_zone[role_idx];
    assert(old_zone >= 0);
    assert(!st.swap.empty()); // try_place parks instead
    gc_runs_++;
    uint32_t new_zone = st.swap.front();
    st.swap.erase(st.swap.begin());
    assert(st.wp[new_zone] == 0);

    // 1. Bind the swap zone to the role with a fresh epoch; new log
    //    entries go there immediately (the caller appends right after).
    st.role_zone[role_idx] = static_cast<int>(new_zone);
    MdAppend rec;
    rec.header.type = MdType::kZoneRole;
    rec.inline_data = encode_zone_role({role, st.next_epoch++});

    // 2. Checkpoint valid in-memory metadata (entries flagged).
    std::vector<MdAppend> checkpoint;
    if (snapshot_)
        checkpoint = snapshot_(dev, role);

    auto remaining = std::make_shared<size_t>(1 + checkpoint.size());
    auto first_error = std::make_shared<Status>();
    uint32_t old_zone_u = static_cast<uint32_t>(old_zone);
    auto on_write = [this, dev, old_zone_u, remaining, first_error,
                     done = std::move(done)](Status s) {
        if (!s.is_ok() && first_error->is_ok())
            *first_error = s;
        if (--*remaining > 0)
            return;
        if (!first_error->is_ok()) {
            drain_parked(dev);
            done(*first_error);
            return;
        }
        // 3. Checkpoint durable: recycle the old zone into the swap
        //    pool. (If power is lost before this reset, both zones are
        //    replayed at mount; duplicates are harmless.)
        IoRequest rst = IoRequest::zone_reset(md_zone_pba(old_zone_u));
        rst.cause = obs::Cause::kGc;
        md_submit(
            dev, std::move(rst),
            [this, dev, old_zone_u, done](IoResult r) {
                if (r.status.is_ok()) {
                    dev_state_[dev].wp[old_zone_u] = 0;
                    dev_state_[dev].swap.push_back(old_zone_u);
                }
                drain_parked(dev);
                done(r.status);
            });
    };

    // Role record and checkpoint rewrites are metadata-GC traffic:
    // bytes moved to recycle a zone, not new logical metadata.
    do_append(dev, new_zone, encode(rec), /*durable=*/true,
              obs::Cause::kGc, on_write);
    for (auto &entry : checkpoint) {
        entry.header.checkpoint = true;
        uint64_t sectors = 1 + entry.payload.size() / kSectorSize;
        if (st.wp[new_zone] + sectors > md_zone_cap())
            RAIZN_PANIC("metadata checkpoint exceeds zone capacity");
        do_append(dev, new_zone, encode(entry), /*durable=*/true,
                  obs::Cause::kGc, on_write);
    }
}

bool
MdManager::try_place(uint32_t dev, Pending &p)
{
    DevState &st = dev_state_[dev];
    uint32_t role_idx = static_cast<uint32_t>(p.role);
    uint64_t sectors = p.bytes.size() / kSectorSize;
    auto zone = static_cast<uint32_t>(st.role_zone[role_idx]);
    if (st.wp[zone] + sectors > md_zone_cap()) {
        if (st.swap.empty())
            return false;
        // Out of space: switch to a swap zone, then append there.
        gc_switch(dev, p.role, [](Status s) {
            if (!s.is_ok())
                LOG_WARN("metadata GC failed: %s", s.to_string().c_str());
        });
        zone = static_cast<uint32_t>(st.role_zone[role_idx]);
        if (st.wp[zone] + sectors > md_zone_cap())
            RAIZN_PANIC("metadata entry larger than metadata zone");
    }
    if (p.placed)
        p.placed(md_zone_pba(zone) + st.wp[zone]);
    do_append(dev, zone, std::move(p.bytes), p.durable, p.cause,
              std::move(p.cb));
    return true;
}

void
MdManager::drain_parked(uint32_t dev)
{
    if (devs_[dev]->failed()) {
        flush_parked(dev);
        return;
    }
    // Front-first, stopping at the first entry that still cannot be
    // placed: re-queueing it behind later ones could starve it forever.
    std::deque<Pending> &parked = dev_state_[dev].parked;
    while (!parked.empty()) {
        Pending p = std::move(parked.front());
        parked.pop_front();
        if (!try_place(dev, p)) {
            parked.push_front(std::move(p));
            return;
        }
    }
}

void
MdManager::flush_parked(uint32_t dev)
{
    for (Pending &p : std::exchange(dev_state_[dev].parked, {})) {
        loop_->schedule_after(1,
                              [cb = std::move(p.cb)] { cb(Status::ok()); });
    }
}

void
MdManager::append(uint32_t dev, MdZoneRole role, MdAppend entry,
                  bool durable, StatusCb cb, PlacedCb placed)
{
    assert(dev < devs_.size());
    assert(role == MdZoneRole::kGeneral || role == MdZoneRole::kParityLog);
    DevState &st = dev_state_[dev];
    uint32_t role_idx = static_cast<uint32_t>(role);
    if (devs_[dev]->failed() || st.role_zone[role_idx] < 0) {
        // Metadata on a failed device is moot (§4.3); report success so
        // degraded writes proceed. Same for a blank replacement whose
        // metadata zones were never formatted (degraded mount after a
        // crash between device swap and the first rebuild checkpoint):
        // rewrite_replicated_md re-creates everything during rebuild.
        loop_->schedule_after(1, [cb = std::move(cb)] { cb(Status::ok()); });
        return;
    }
    Pending p{role, encode(entry), durable,
              cause_of(role, entry.header.type), std::move(cb),
              std::move(placed)};
    bool role_waiting = std::any_of(
        st.parked.begin(), st.parked.end(),
        [role](const Pending &q) { return q.role == role; });
    if (role_waiting || !try_place(dev, p))
        st.parked.push_back(std::move(p));
}

Result<uint32_t>
MdManager::borrow_swap(uint32_t dev)
{
    DevState &st = dev_state_[dev];
    if (st.swap.empty())
        return Status(StatusCode::kNoSpace, "no swap zone available");
    uint32_t idx = st.swap.front();
    st.swap.erase(st.swap.begin());
    return idx;
}

void
MdManager::return_swap(uint32_t dev, uint32_t idx)
{
    DevState &st = dev_state_[dev];
    st.wp[idx] = 0;
    st.swap.push_back(idx);
    drain_parked(dev);
}

Result<std::vector<MdManager::DeviceLog>>
MdManager::scan()
{
    std::vector<DeviceLog> out(devs_.size());
    for (uint32_t d = 0; d < devs_.size(); ++d) {
        DevState &st = dev_state_[d];
        st = DevState{};
        st.wp.assign(layout_->md_zones(), 0);
        if (devs_[d]->failed())
            continue;
        out[d].alive = true;

        struct ZoneImage {
            uint32_t idx;
            std::vector<MdEntry> entries;
            bool has_role = false;
            ZoneRoleRecord role{};
        };
        std::vector<ZoneImage> images;
        for (uint32_t i = 0; i < layout_->md_zones(); ++i) {
            uint32_t phys_zone = layout_->first_md_zone() + i;
            auto zi = devs_[d]->zone_info(phys_zone);
            if (!zi.is_ok())
                return zi.status();
            uint64_t written = zi.value().written();
            st.wp[i] = written;
            ZoneImage img;
            img.idx = i;
            if (written > 0) {
                IoRequest rd = IoRequest::read(
                    md_zone_pba(i), static_cast<uint32_t>(written));
                rd.cause = obs::Cause::kWalMd;
                auto res = submit_sync(*loop_, *devs_[d], std::move(rd));
                if (!res.status.is_ok())
                    return res.status;
                img.entries = scan_md_zone(res.data, md_zone_pba(i));
            }
            if (!img.entries.empty() &&
                img.entries.front().header.type == MdType::kZoneRole) {
                auto role = decode_zone_role(img.entries.front());
                if (role.is_ok()) {
                    img.has_role = true;
                    img.role = role.value();
                }
            }
            images.push_back(std::move(img));
        }

        // Restore role bindings: highest epoch per role wins; zones
        // with no role record (or stale ones already reset) are swap.
        for (uint32_t role = 0; role < kNumRoles; ++role) {
            int best = -1;
            uint64_t best_epoch = 0;
            for (auto &img : images) {
                if (img.has_role &&
                    static_cast<uint32_t>(img.role.role) == role &&
                    img.role.epoch >= best_epoch) {
                    best_epoch = img.role.epoch;
                    best = static_cast<int>(img.idx);
                }
            }
            st.role_zone[role] = best;
            st.next_epoch = std::max(st.next_epoch, best_epoch + 1);
        }
        for (auto &img : images) {
            bool active = false;
            for (uint32_t role = 0; role < kNumRoles; ++role)
                active |= st.role_zone[role] == static_cast<int>(img.idx);
            if (!active && img.has_role) {
                // Stale zone from an interrupted GC: replay, then reset
                // it back into the swap pool.
                IoRequest rst =
                    IoRequest::zone_reset(md_zone_pba(img.idx));
                rst.cause = obs::Cause::kWalMd;
                auto res = submit_sync(*loop_, *devs_[d], std::move(rst));
                if (!res.status.is_ok())
                    return res.status;
                st.wp[img.idx] = 0;
            }
            if (!active)
                st.swap.push_back(img.idx);
        }

        // Emit entries in replay order: ascending role epoch, then
        // append order within the zone. Stale zones (lower epoch)
        // replay before the active zone's checkpoint entries.
        std::stable_sort(images.begin(), images.end(),
                         [](const ZoneImage &a, const ZoneImage &b) {
                             uint64_t ea = a.has_role ? a.role.epoch : 0;
                             uint64_t eb = b.has_role ? b.role.epoch : 0;
                             return ea < eb;
                         });
        for (auto &img : images) {
            for (auto &entry : img.entries) {
                if (entry.header.type == MdType::kZoneRole)
                    continue;
                out[d].entries.push_back(std::move(entry));
            }
        }
    }
    return out;
}

} // namespace raizn
