#include "chk/oracle.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "array/engine.h"
#include "common/logging.h"
#include "common/xor.h"
#include "raizn/volume.h"
#include "sim/event_loop.h"
#include "zns/zns_device.h"

namespace raizn::chk {

namespace {

void
add(std::vector<ChkFailure> *out, uint64_t point, const char *invariant,
    std::string detail)
{
    out->push_back({point, invariant, std::move(detail)});
}

/// Synchronous logical read through the array.
IoResult
vol_read(EventLoop &loop, ZonedArray &vol, uint64_t lba, uint32_t n)
{
    IoResult res;
    bool done = false;
    vol.read(lba, n, [&](IoResult r) {
        res = std::move(r);
        done = true;
    });
    loop.run_until_pred([&] { return done; });
    return res;
}

/// First differing sector between `got` and the image prefix, or -1.
int64_t
first_mismatch(const std::vector<uint8_t> &got,
               const std::vector<uint8_t> &image, uint64_t nsectors)
{
    for (uint64_t s = 0; s < nsectors; ++s) {
        if (std::memcmp(got.data() + s * kSectorSize,
                        image.data() + s * kSectorSize, kSectorSize) != 0)
            return static_cast<int64_t>(s);
    }
    return -1;
}

/// Reads [start, start+fill) through the array and compares against
/// the shadow image. Returns true when everything matched.
bool
check_zone_content(EventLoop &loop, ZonedArray &vol, uint32_t z,
                   uint64_t start, uint64_t fill,
                   const std::vector<uint8_t> &image, const char *tag,
                   uint64_t point, std::vector<ChkFailure> *out)
{
    constexpr uint32_t kChunk = 128; // sectors per read
    for (uint64_t off = 0; off < fill; off += kChunk) {
        uint32_t n =
            static_cast<uint32_t>(std::min<uint64_t>(kChunk, fill - off));
        IoResult r = vol_read(loop, vol, start + off, n);
        if (!r.status.is_ok()) {
            add(out, point, tag,
                strprintf("zone %u read at off %llu failed: %s", z,
                          (unsigned long long)off,
                          r.status.to_string().c_str()));
            return false;
        }
        std::vector<uint8_t> want(
            image.begin() +
                static_cast<ptrdiff_t>(off * kSectorSize),
            image.begin() +
                static_cast<ptrdiff_t>((off + n) * kSectorSize));
        int64_t bad = first_mismatch(r.data, want, n);
        if (bad >= 0) {
            add(out, point, tag,
                strprintf("zone %u data mismatch at zone offset %llu", z,
                          (unsigned long long)(off + bad)));
            return false;
        }
    }
    return true;
}

/**
 * Mode-independent core of the oracle: readability, durability floor,
 * wp bounds (with the two-world reset ambiguity), and generation
 * monotonicity — everything expressible through the ZonedArray
 * interface plus a per-zone generation getter. Fills `fills` with the
 * recovered per-zone fill for the mode-specific checks that follow.
 */
void
check_core(EventLoop &loop, ZonedArray &vol, const ShadowVolume &shadow,
           const std::vector<uint64_t> &pre_crash_gens,
           const std::function<uint64_t(uint32_t)> &gen_of,
           uint64_t crash_point, std::vector<ChkFailure> *out,
           std::vector<uint64_t> *fills)
{
    const uint64_t cap = shadow.zone_cap();

    for (uint32_t z = 0; z < shadow.num_zones(); ++z) {
        auto zi = vol.zone_info(z);
        if (!zi.is_ok()) {
            add(out, crash_point, "wp-bounds",
                strprintf("zone_info(%u) failed: %s", z,
                          zi.status().to_string().c_str()));
            continue;
        }
        uint64_t off = zi.value().wp - zi.value().start;
        (*fills)[z] = off;
        const ShadowVolume::ZoneShadow &zs = shadow.zone(z);

        // Generation counters never move backwards.
        if (gen_of(z) < pre_crash_gens[z]) {
            add(out, crash_point, "gen-monotonic",
                strprintf("zone %u generation %llu < pre-crash %llu", z,
                          (unsigned long long)gen_of(z),
                          (unsigned long long)pre_crash_gens[z]));
        }

        if (zs.reset_pending) {
            // Two allowed worlds: the reset won (empty zone) or the
            // reset WAL never became durable (old contents intact).
            uint64_t old_hi = zs.old_finish_pending ? cap : zs.old_wp;
            if (off == 0)
                continue;
            if (off < zs.old_floor || off > old_hi) {
                add(out, crash_point, "wp-bounds",
                    strprintf("zone %u recovered fill %llu outside "
                              "[%llu, %llu] (reset in flight)",
                              z, (unsigned long long)off,
                              (unsigned long long)zs.old_floor,
                              (unsigned long long)old_hi));
                continue;
            }
            check_zone_content(loop, vol, z, zi.value().start, off,
                               zs.old_image, "readability", crash_point,
                               out);
            continue;
        }

        uint64_t hi = zs.finish_pending ? cap : zs.wp;
        if (off < zs.floor) {
            add(out, crash_point, "durability",
                strprintf("zone %u recovered fill %llu below durable "
                          "floor %llu",
                          z, (unsigned long long)off,
                          (unsigned long long)zs.floor));
            continue;
        }
        if (off > hi) {
            add(out, crash_point, "wp-bounds",
                strprintf("zone %u recovered fill %llu above submitted "
                          "%llu",
                          z, (unsigned long long)off,
                          (unsigned long long)hi));
            continue;
        }
        check_zone_content(loop, vol, z, zi.value().start, off, zs.image,
                           "readability", crash_point, out);
    }
}

} // namespace

void
check_invariants(EventLoop &loop, RaiznVolume &vol,
                 const std::vector<ZnsDevice *> &devs,
                 const ShadowVolume &shadow,
                 const std::vector<uint64_t> &pre_crash_gens,
                 const OracleOptions &opts, uint64_t crash_point,
                 std::vector<ChkFailure> *out)
{
    std::vector<uint64_t> fills(shadow.num_zones(), 0);
    check_core(loop, vol, shadow, pre_crash_gens,
               [&vol](uint32_t z) { return vol.gen_counters().get(z); },
               crash_point, out, &fills);

    // Parity of settled full stripes, checked raw against the devices.
    // Skipped when degraded (the failed device's units are unreadable)
    // and for stripes with relocated or burned units, whose semantic
    // correctness the degraded re-read covers instead.
    if (opts.check_parity && !vol.degraded()) {
        const Layout &lay = vol.layout();
        const uint32_t D = lay.data_units();
        const uint32_t su = lay.su();
        for (uint32_t z = 0; z < shadow.num_zones(); ++z) {
            uint64_t full_stripes = fills[z] / lay.stripe_sectors();
            for (uint64_t s = 0; s < full_stripes; ++s) {
                if (vol.stripe_displaced(z, s))
                    continue;
                uint64_t pba = lay.slot_pba(z, s);
                std::vector<uint8_t> acc(
                    static_cast<size_t>(su) * kSectorSize, 0);
                bool read_ok = true;
                for (uint32_t k = 0; k < D && read_ok; ++k) {
                    uint32_t d = lay.data_dev(z, s, k);
                    IoRequest rd = IoRequest::read(pba, su);
                    rd.cause = obs::Cause::kScrub;
                    IoResult r =
                        submit_sync(loop, *devs[d], std::move(rd));
                    read_ok = r.status.is_ok();
                    if (read_ok)
                        xor_bytes(acc.data(), r.data.data(), acc.size());
                }
                if (!read_ok)
                    continue;
                uint32_t pdev = lay.parity_dev(z, s);
                IoRequest prd = IoRequest::read(pba, su);
                prd.cause = obs::Cause::kScrub;
                IoResult pr =
                    submit_sync(loop, *devs[pdev], std::move(prd));
                if (!pr.status.is_ok())
                    continue;
                if (std::memcmp(acc.data(), pr.data.data(), acc.size()) !=
                    0) {
                    add(out, crash_point, "parity",
                        strprintf("zone %u stripe %llu parity mismatch",
                                  z, (unsigned long long)s));
                }
            }
        }
    }

    // Degraded re-read: mark one device failed and require every
    // readable sector to reconstruct to the same shadow value.
    if (opts.degrade_dev >= 0 && !vol.degraded() && !vol.read_only() &&
        !devs[static_cast<uint32_t>(opts.degrade_dev)]->failed()) {
        vol.mark_device_failed(static_cast<uint32_t>(opts.degrade_dev));
        for (uint32_t z = 0; z < shadow.num_zones(); ++z) {
            const ShadowVolume::ZoneShadow &zs = shadow.zone(z);
            const std::vector<uint8_t> &image =
                zs.reset_pending && fills[z] > 0 ? zs.old_image
                                                 : zs.image;
            if (image.empty())
                continue;
            check_zone_content(loop, vol, z, vol.zone_info(z).value().start,
                               fills[z], image, "degraded-read",
                               crash_point, out);
        }
    }
}

void
check_engine_invariants(EventLoop &loop, ZonedEngine &eng,
                        const ShadowVolume &shadow,
                        const std::vector<uint64_t> &pre_crash_gens,
                        const EngineOracleOptions &opts,
                        uint64_t crash_point, std::vector<ChkFailure> *out)
{
    std::vector<uint64_t> fills(shadow.num_zones(), 0);
    check_core(loop, eng, shadow, pre_crash_gens,
               [&eng](uint32_t z) { return eng.zone_gen(z); },
               crash_point, out, &fills);

    // Mount contract: a zone recovered non-empty is frozen (read-only
    // until reset — members may disagree about the tail), an empty one
    // is writable.
    for (uint32_t z = 0; z < shadow.num_zones(); ++z) {
        if (eng.zone_frozen(z) != (fills[z] > 0)) {
            add(out, crash_point, "frozen",
                strprintf("zone %u recovered fill %llu but frozen=%d", z,
                          (unsigned long long)fills[z],
                          eng.zone_frozen(z) ? 1 : 0));
        }
    }

    // Settled-stripe consistency. Device rows are append-only and the
    // scrubber only consults rows below each member's recovered fill,
    // so everything it can see must agree: mirror copies identical,
    // on-media parity matching its data, every unit readable somewhere.
    if (opts.check_scrub && !eng.degraded()) {
        ZonedArray::ScrubReport rep;
        Status s = eng.scrub_all(&rep);
        if (!s.is_ok()) {
            add(out, crash_point, "scrub", s.to_string());
        } else if (rep.unrecoverable != 0 || rep.parity_mismatches != 0 ||
                   rep.crc_mismatches != 0) {
            add(out, crash_point, "scrub",
                strprintf("post-crash scrub found unrecoverable=%llu "
                          "parity_mismatches=%llu crc_mismatches=%llu",
                          (unsigned long long)rep.unrecoverable,
                          (unsigned long long)rep.parity_mismatches,
                          (unsigned long long)rep.crc_mismatches));
        }
    }

    // Degraded re-read of mirror-kind zones: every sector readable
    // without `degrade_dev` must reconstruct to the shadow value.
    // Parity-kind zones are skipped — their open-stripe parity died
    // with the crash (the write hole; RAIZN's partial-parity log is
    // the fix), so the engine only promises degraded reads of data
    // that survives on the remaining members' own rows.
    if (opts.degrade_dev >= 0 && !eng.degraded()) {
        const uint32_t down = static_cast<uint32_t>(opts.degrade_dev);
        bool marked = false;
        for (uint32_t z = 0; z < shadow.num_zones(); ++z) {
            ZonedEngine::ZoneKind k = eng.zone_kind(z);
            if (k != ZonedEngine::ZoneKind::kMirror &&
                k != ZonedEngine::ZoneKind::kMirrorPairs)
                continue;
            if (fills[z] == 0)
                continue;
            uint64_t df =
                std::min<uint64_t>(eng.degraded_fill(z, down), fills[z]);
            if (df == 0)
                continue;
            if (!marked) {
                eng.mark_device_failed(down);
                marked = true;
            }
            const ShadowVolume::ZoneShadow &zs = shadow.zone(z);
            const std::vector<uint8_t> &image =
                zs.reset_pending && fills[z] > 0 ? zs.old_image
                                                 : zs.image;
            if (image.empty())
                continue;
            check_zone_content(loop, eng, z,
                               eng.zone_info(z).value().start, df, image,
                               "degraded-read", crash_point, out);
        }
    }
}

} // namespace raizn::chk
