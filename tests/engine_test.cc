/**
 * @file
 * Unit tests for the generic multi-mode RAID engine (ZonedEngine):
 * GF(256) arithmetic and its dispatched region kernels against the
 * portable oracle, create-time validation, per-mode capacity math,
 * write/read roundtrips across every mode, crash durability of
 * flushed/FUA data with frozen-zone remount semantics, degraded reads
 * (including RAID-6 double failure and RAID-0 data loss), manual and
 * spare-driven rebuild, auto-mode kind decisions, scrubbing, journal
 * exhaustion, and metrics-registry linkage.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "array/engine.h"
#include "array/gf256.h"
#include "common/rng.h"
#include "common/xor.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"
#include "zns/zns_device.h"

namespace raizn {
namespace {

/// The engine modes, iterated by the cross-mode cases below.
const RaidMode kEngineModes[] = {
    RaidMode::kRaid0,  RaidMode::kRaid1, RaidMode::kRaid5,
    RaidMode::kRaid6,  RaidMode::kRaid10, RaidMode::kAuto,
};

/// TestArray counterpart for ZonedEngine: owns the loop, the ZNS
/// members, and an engine in any mode; provides sync op wrappers and
/// power-cut/remount helpers.
struct EngineArray {
    std::unique_ptr<EventLoop> loop;
    std::vector<std::unique_ptr<ZnsDevice>> devs;
    std::unique_ptr<ZonedEngine> eng;
    EngineConfig cfg;
    uint32_t nzones = 5;
    uint64_t zone_cap = 64;

    ZnsDeviceConfig
    device_config(uint32_t i) const
    {
        ZnsDeviceConfig dc;
        dc.nzones = nzones;
        dc.zone_size = zone_cap;
        dc.zone_capacity = zone_cap;
        dc.max_open_zones = 14;
        dc.max_active_zones = 14;
        dc.atomic_write_sectors = 4;
        dc.data_mode = DataMode::kStore;
        dc.name = "zns" + std::to_string(i);
        return dc;
    }

    std::vector<BlockDevice *>
    dev_ptrs() const
    {
        std::vector<BlockDevice *> ptrs;
        for (const auto &d : devs)
            ptrs.push_back(d.get());
        return ptrs;
    }

    void
    make(RaidMode mode, uint32_t ndev = 4, uint32_t su = 4)
    {
        cfg = EngineConfig{};
        cfg.mode = mode;
        cfg.su_sectors = su;
        loop = std::make_unique<EventLoop>();
        devs.clear();
        for (uint32_t i = 0; i < ndev; ++i)
            devs.push_back(
                std::make_unique<ZnsDevice>(loop.get(), device_config(i)));
        auto res = ZonedEngine::create(loop.get(), dev_ptrs(), cfg);
        ASSERT_TRUE(res.is_ok()) << res.status().to_string();
        eng = std::move(res).value();
    }

    /// Cuts power on every member with `spec`, then remounts.
    void
    crash_and_remount(const PowerLossSpec &spec)
    {
        for (auto &d : devs)
            d->power_cut(spec);
        eng.reset();
        loop = std::make_unique<EventLoop>();
        for (auto &d : devs)
            d->reattach(loop.get());
        auto res = ZonedEngine::mount(loop.get(), dev_ptrs(), cfg);
        ASSERT_TRUE(res.is_ok()) << res.status().to_string();
        eng = std::move(res).value();
    }

    IoResult
    write(uint64_t lba, std::vector<uint8_t> data, WriteFlags flags = {})
    {
        IoResult out;
        bool done = false;
        eng->write(lba, std::move(data), flags, [&](IoResult r) {
            out = std::move(r);
            done = true;
        });
        loop->run_until_pred([&] { return done; });
        EXPECT_TRUE(done);
        return out;
    }

    IoResult
    read(uint64_t lba, uint32_t nsectors)
    {
        IoResult out;
        bool done = false;
        eng->read(lba, nsectors, [&](IoResult r) {
            out = std::move(r);
            done = true;
        });
        loop->run_until_pred([&] { return done; });
        EXPECT_TRUE(done);
        return out;
    }

    IoResult
    flush()
    {
        IoResult out;
        bool done = false;
        eng->flush([&](IoResult r) {
            out = std::move(r);
            done = true;
        });
        loop->run_until_pred([&] { return done; });
        return out;
    }

    IoResult
    reset_zone(uint32_t zone)
    {
        IoResult out;
        bool done = false;
        eng->reset_zone(zone, [&](IoResult r) {
            out = std::move(r);
            done = true;
        });
        loop->run_until_pred([&] { return done; });
        return out;
    }

    IoResult
    finish_zone(uint32_t zone)
    {
        IoResult out;
        bool done = false;
        eng->finish_zone(zone, [&](IoResult r) {
            out = std::move(r);
            done = true;
        });
        loop->run_until_pred([&] { return done; });
        return out;
    }

    Status
    rebuild(uint32_t dev)
    {
        Status out;
        bool done = false;
        eng->rebuild_device(dev, nullptr, [&](Status s) {
            out = s;
            done = true;
        });
        loop->run_until_pred([&] { return done; });
        EXPECT_TRUE(done);
        return out;
    }

    void
    write_pattern(uint64_t lba, uint32_t nsectors, uint64_t seed,
                  WriteFlags flags = {})
    {
        IoResult r = write(lba, pattern_data(nsectors, seed), flags);
        ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
    }

    /// Read-back check for a sub-range of an earlier write: compares
    /// [lba, lba+n) against the matching slice of the pattern written
    /// at `write_lba` with `write_n` sectors.
    void
    expect_pattern_slice(uint64_t write_lba, uint32_t write_n,
                         uint64_t seed, uint64_t lba, uint32_t n)
    {
        IoResult r = read(lba, n);
        ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
        std::vector<uint8_t> whole = pattern_data(write_n, seed);
        size_t off = static_cast<size_t>(lba - write_lba) * kSectorSize;
        ASSERT_EQ(static_cast<size_t>(n) * kSectorSize, r.data.size());
        EXPECT_EQ(0, std::memcmp(r.data.data(), whole.data() + off,
                                 r.data.size()))
            << "slice mismatch at lba " << lba;
    }

    void
    expect_pattern(uint64_t lba, uint32_t nsectors, uint64_t seed)
    {
        IoResult r = read(lba, nsectors);
        ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
        std::vector<uint8_t> want = pattern_data(nsectors, seed);
        ASSERT_EQ(r.data.size(), want.size());
        EXPECT_EQ(0, std::memcmp(r.data.data(), want.data(), want.size()))
            << "payload mismatch at lba " << lba;
    }
};

// ---------------------------------------------------------------------
// GF(256)
// ---------------------------------------------------------------------

TEST(Gf256, MulInvRoundtrip)
{
    for (int a = 1; a < 256; ++a) {
        uint8_t x = static_cast<uint8_t>(a);
        EXPECT_EQ(1, gf256::mul(x, gf256::inv(x))) << a;
    }
    EXPECT_EQ(0, gf256::mul(0, 37));
    EXPECT_EQ(gf256::mul(3, 7), gf256::mul(7, 3));
    // g^0 = 1, g^255 wraps to g^0.
    EXPECT_EQ(1, gf256::exp2(0));
    EXPECT_EQ(gf256::exp2(0), gf256::exp2(255));
    EXPECT_EQ(2, gf256::exp2(1));
}

TEST(Gf256, SolveTwoRecoversUnits)
{
    // Stripe of 4 data units, lose units 1 and 3; feed solve_two the
    // partial P/Q (parity XOR/accumulated with the surviving units).
    const size_t len = 64;
    std::vector<std::vector<uint8_t>> d(4, std::vector<uint8_t>(len));
    for (unsigned u = 0; u < 4; ++u)
        for (size_t i = 0; i < len; ++i)
            d[u][i] = static_cast<uint8_t>(u * 31 + i * 7 + 1);
    std::vector<uint8_t> p(len, 0), q(len, 0);
    for (unsigned u = 0; u < 4; ++u) {
        for (size_t i = 0; i < len; ++i)
            p[i] ^= d[u][i];
        gf256::accumulate(q.data(), d[u].data(), len, u);
    }
    // Partial parities: strip out the surviving units 0 and 2.
    std::vector<uint8_t> pp = p, qq = q;
    for (unsigned u : {0u, 2u}) {
        for (size_t i = 0; i < len; ++i)
            pp[i] ^= d[u][i];
        gf256::accumulate(qq.data(), d[u].data(), len, u);
    }
    std::vector<uint8_t> dx(len), dy(len);
    gf256::solve_two(dx.data(), dy.data(), pp.data(), qq.data(), len, 1, 3);
    EXPECT_EQ(0, std::memcmp(dx.data(), d[1].data(), len));
    EXPECT_EQ(0, std::memcmp(dy.data(), d[3].data(), len));
}

std::vector<uint8_t>
gf_random_bytes(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> out(n);
    for (auto &b : out)
        b = static_cast<uint8_t>(rng.next());
    return out;
}

TEST(Gf256, Avx2ChosenWhenCpuHasIt)
{
#if defined(__x86_64__)
    EXPECT_EQ(gf256::detail::avx2_active(),
              static_cast<bool>(__builtin_cpu_supports("avx2")));
#else
    EXPECT_FALSE(gf256::detail::avx2_active());
#endif
}

TEST(Gf256, DispatchedAccumulateMatchesPortable)
{
    // Both sides evolve the same destination, so they stay equal only
    // while every call agrees. Each check covers the call's range plus
    // 32 guard bytes past it, catching short and long writes alike.
    // Every coefficient exponent (255 wraps to 0), every short length
    // at every source offset, the destination offset rotating; then
    // 4 KiB and 64 KiB at a rotating offset pair per coefficient.
    const size_t cap = 64 * kKiB + 96;
    auto src = gf_random_bytes(cap, 11);
    auto got = gf_random_bytes(cap, 12);
    auto want = got;
    for (unsigned ce = 0; ce < 256; ++ce) {
        for (size_t len = 0; len < 128; ++len) {
            for (size_t so = 0; so < 32; ++so) {
                size_t doff = (so * 5 + len + ce) % 32;
                gf256::accumulate(got.data() + doff, src.data() + so, len,
                                  ce);
                gf256::detail::accumulate_portable(
                    want.data() + doff, src.data() + so, len, ce);
                ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                         doff + len + 32))
                    << "coeff g^" << ce << " len " << len << " src +"
                    << so << " dst +" << doff;
            }
        }
        for (size_t len : {size_t{4 * kKiB}, size_t{64 * kKiB}}) {
            size_t so = ce % 32, doff = (ce * 7 + 3) % 32;
            gf256::accumulate(got.data() + doff, src.data() + so, len, ce);
            gf256::detail::accumulate_portable(want.data() + doff,
                                               src.data() + so, len, ce);
            ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                     doff + len + 32))
                << "coeff g^" << ce << " len " << len;
        }
    }
}

TEST(Gf256, SolveTwoRecoversEveryPair)
{
    // Every lost pair x < y of 3..16 data units, odd length so the
    // vector loop and the scalar tail both run. The output must match
    // the data, the portable oracle and the original per-byte formula
    //   Dx = (g^(y-x)*P' ^ g^(-x)*Q') / (g^(y-x) ^ 1),  Dy = P' ^ Dx,
    // with either output requested alone.
    const size_t len = 333;
    for (unsigned n = 3; n <= 16; ++n) {
        std::vector<std::vector<uint8_t>> d;
        for (unsigned u = 0; u < n; ++u)
            d.push_back(gf_random_bytes(len, 100 * n + u));
        std::vector<uint8_t> p(len, 0), q(len, 0);
        for (unsigned u = 0; u < n; ++u) {
            detail::xor_bytes_portable(p.data(), d[u].data(), len);
            gf256::detail::accumulate_portable(q.data(), d[u].data(), len,
                                               u);
        }
        for (unsigned x = 0; x < n; ++x) {
            for (unsigned y = x + 1; y < n; ++y) {
                std::vector<uint8_t> pp = p, qq = q;
                for (unsigned u = 0; u < n; ++u) {
                    if (u == x || u == y)
                        continue;
                    xor_bytes(pp.data(), d[u].data(), len);
                    gf256::accumulate(qq.data(), d[u].data(), len, u);
                }
                uint8_t gyx = gf256::exp2(255 + y - x);
                uint8_t gnx = gf256::exp2(255 - x);
                uint8_t dinv = gf256::inv(static_cast<uint8_t>(gyx ^ 1));
                std::vector<uint8_t> old_x(len), old_y(len);
                for (size_t i = 0; i < len; ++i) {
                    old_x[i] = gf256::mul(
                        dinv, static_cast<uint8_t>(gf256::mul(gyx, pp[i]) ^
                                                   gf256::mul(gnx, qq[i])));
                    old_y[i] = pp[i] ^ old_x[i];
                }
                std::vector<uint8_t> dx(len), dy(len), ox(len), oy(len);
                gf256::solve_two(dx.data(), dy.data(), pp.data(),
                                 qq.data(), len, x, y);
                gf256::detail::solve_two_portable(ox.data(), oy.data(),
                                                  pp.data(), qq.data(),
                                                  len, x, y);
                ASSERT_EQ(dx, d[x]) << n << " units, x " << x << " y " << y;
                ASSERT_EQ(dy, d[y]) << n << " units, x " << x << " y " << y;
                ASSERT_EQ(dx, old_x);
                ASSERT_EQ(dy, old_y);
                ASSERT_EQ(ox, old_x);
                ASSERT_EQ(oy, old_y);
                std::vector<uint8_t> only(len);
                gf256::solve_two(only.data(), nullptr, pp.data(),
                                 qq.data(), len, x, y);
                ASSERT_EQ(only, d[x]);
                gf256::solve_two(nullptr, only.data(), pp.data(),
                                 qq.data(), len, x, y);
                ASSERT_EQ(only, d[y]);
            }
        }
    }
}

TEST(Gf256, QPlanIdentity)
{
    // The engine's Q-only reconstruction: with Q' = Q ^ sum over the
    // other units of g^v * D_v, D_u = g^(255 - u) * Q'.
    const size_t len = 4 * kKiB + 5;
    const unsigned n = 6;
    std::vector<std::vector<uint8_t>> d;
    for (unsigned u = 0; u < n; ++u)
        d.push_back(gf_random_bytes(len, 200 + u));
    std::vector<uint8_t> q(len, 0);
    for (unsigned u = 0; u < n; ++u)
        gf256::accumulate(q.data(), d[u].data(), len, u);
    for (unsigned u = 0; u < n; ++u) {
        std::vector<uint8_t> qq = q;
        for (unsigned v = 0; v < n; ++v)
            if (v != u)
                gf256::accumulate(qq.data(), d[v].data(), len, v);
        std::vector<uint8_t> res(len, 0);
        gf256::accumulate(res.data(), qq.data(), len, 255u - u);
        EXPECT_EQ(res, d[u]) << "unit " << u;
    }
}

// ---------------------------------------------------------------------
// Creation / geometry
// ---------------------------------------------------------------------

TEST(EngineCreate, RejectsBadConfigs)
{
    EventLoop loop;
    std::vector<std::unique_ptr<ZnsDevice>> devs;
    std::vector<BlockDevice *> ptrs;
    for (uint32_t i = 0; i < 3; ++i) {
        ZnsDeviceConfig dc;
        dc.nzones = 5;
        dc.zone_size = 64;
        dc.zone_capacity = 64;
        dc.data_mode = DataMode::kStore;
        dc.name = "zns" + std::to_string(i);
        devs.push_back(std::make_unique<ZnsDevice>(&loop, dc));
        ptrs.push_back(devs.back().get());
    }
    struct Case {
        RaidMode mode;
        size_t ndev;
    };
    const Case bad[] = {
        {RaidMode::kRaid5, 2},  {RaidMode::kRaid6, 3},
        {RaidMode::kRaid10, 3}, {RaidMode::kAuto, 2},
        {RaidMode::kRaid0, 1},  {RaidMode::kRaizn, 3},
        {RaidMode::kMdraid, 3},
    };
    for (const Case &c : bad) {
        EngineConfig cfg;
        cfg.mode = c.mode;
        cfg.su_sectors = 4;
        std::vector<BlockDevice *> sub(ptrs.begin(),
                                       ptrs.begin() + c.ndev);
        auto res = ZonedEngine::create(&loop, sub, cfg);
        EXPECT_FALSE(res.is_ok())
            << "mode " << to_string(c.mode) << " ndev " << c.ndev;
        if (!res.is_ok()) {
            EXPECT_EQ(StatusCode::kInvalidArgument, res.status().code());
        }
    }
    // su_sectors == 0 is rejected too.
    EngineConfig cfg;
    cfg.mode = RaidMode::kRaid5;
    cfg.su_sectors = 0;
    EXPECT_FALSE(ZonedEngine::create(&loop, ptrs, cfg).is_ok());
}

TEST(EngineCreate, CapacityMathPerMode)
{
    // Z = 64, su = 4, N = 4 members, 5 phys zones (1 journal).
    struct Want {
        RaidMode mode;
        uint64_t zone_cap;
    };
    const Want wants[] = {
        {RaidMode::kRaid0, 256}, {RaidMode::kRaid1, 64},
        {RaidMode::kRaid5, 192}, {RaidMode::kRaid6, 128},
        {RaidMode::kRaid10, 128}, {RaidMode::kAuto, 60},
    };
    for (const Want &w : wants) {
        EngineArray a;
        a.make(w.mode);
        if (::testing::Test::HasFatalFailure())
            return;
        EXPECT_EQ(w.zone_cap, a.eng->zone_capacity())
            << to_string(w.mode);
        EXPECT_EQ(4u, a.eng->num_zones()) << to_string(w.mode);
        EXPECT_EQ(4 * w.zone_cap, a.eng->capacity()) << to_string(w.mode);
        EXPECT_EQ(w.mode, a.eng->mode());
    }
    // RAID-1 capacity is one member zone regardless of member count.
    EngineArray r1;
    r1.make(RaidMode::kRaid1, 2);
    EXPECT_EQ(64u, r1.eng->zone_capacity());
}

TEST(EngineCreate, ParityRotationCoversAllMembers)
{
    EngineArray a;
    a.make(RaidMode::kRaid5);
    std::vector<bool> seen(4, false);
    for (uint64_t s = 0; s < 4; ++s) {
        int p = a.eng->parity_dev(0, s);
        ASSERT_GE(p, 0);
        seen[static_cast<size_t>(p)] = true;
        // Data devs and parity dev partition the member set.
        for (uint32_t u = 0; u < a.eng->data_units(0); ++u)
            EXPECT_NE(static_cast<uint32_t>(p), a.eng->chunk_dev(0, s, u));
    }
    for (bool b : seen)
        EXPECT_TRUE(b);

    EngineArray a6;
    a6.make(RaidMode::kRaid6);
    for (uint64_t s = 0; s < 4; ++s) {
        int p = a6.eng->parity_dev(0, s);
        int q = a6.eng->q_dev(0, s);
        ASSERT_GE(p, 0);
        ASSERT_GE(q, 0);
        EXPECT_NE(p, q);
    }
}

// ---------------------------------------------------------------------
// Roundtrip across modes
// ---------------------------------------------------------------------

TEST(EngineIo, RoundtripAllModes)
{
    for (RaidMode mode : kEngineModes) {
        SCOPED_TRACE(std::string(to_string(mode)));
        EngineArray a;
        a.make(mode);
        if (::testing::Test::HasFatalFailure())
            return;
        const uint64_t cap = a.eng->zone_capacity();
        // Zone 0: sequential writes of varying sizes up to ~half cap.
        uint64_t off = 0;
        uint32_t sizes[] = {1, 4, 7, 12, 3};
        for (uint32_t n : sizes) {
            if (off + n > cap)
                break;
            a.write_pattern(off, n, /*seed=*/1000 + off);
            off += n;
        }
        // Zone 2 in parallel, exercising the rotation with a stripe-
        // crossing write.
        uint64_t z2 = 2 * cap;
        a.write_pattern(z2, 10, 7777);
        // Full-range and sub-range read-back.
        uint64_t o = 0;
        for (uint32_t n : sizes) {
            if (o + n > cap)
                break;
            a.expect_pattern(o, n, 1000 + o);
            o += n;
        }
        a.expect_pattern(z2, 10, 7777);
        a.expect_pattern_slice(z2, 10, 7777, z2 + 3, 4); // unaligned
        {
            // Sliced read inside the first write sequence: compare
            // against a reread of the same range.
            IoResult whole = a.read(0, static_cast<uint32_t>(off));
            ASSERT_TRUE(whole.status.is_ok());
            IoResult part = a.read(5, 9);
            ASSERT_TRUE(part.status.is_ok());
            EXPECT_EQ(0, std::memcmp(part.data.data(),
                                     whole.data.data() + 5 * kSectorSize,
                                     part.data.size()));
        }
        // Write-pointer mismatch and zone-boundary violations.
        IoResult bad = a.write(off + 2, pattern_data(1, 9));
        EXPECT_EQ(StatusCode::kWritePointerMismatch, bad.status.code());
        IoResult past = a.write(cap - 1, pattern_data(2, 9));
        EXPECT_FALSE(past.status.is_ok());
    }
}

TEST(EngineIo, ZoneLifecycle)
{
    EngineArray a;
    a.make(RaidMode::kRaid5);
    const uint64_t cap = a.eng->zone_capacity();
    a.write_pattern(cap, 8, 42); // zone 1
    auto zi = a.eng->zone_info(1);
    ASSERT_TRUE(zi.is_ok());
    EXPECT_EQ(8u, zi.value().written());
    // Finish: zone reports full, further writes bounce.
    ASSERT_TRUE(a.finish_zone(1).status.is_ok());
    zi = a.eng->zone_info(1);
    ASSERT_TRUE(zi.is_ok());
    EXPECT_TRUE(zi.value().full());
    EXPECT_TRUE(a.eng->zone_finished(1));
    EXPECT_EQ(StatusCode::kNoSpace,
              a.write(cap + 8, pattern_data(1, 1)).status.code());
    // The written prefix stays readable after finish.
    a.expect_pattern(cap, 8, 42);
    // Reset: empty again, gen bumped, writable from the start.
    uint64_t gen0 = a.eng->zone_gen(1);
    ASSERT_TRUE(a.reset_zone(1).status.is_ok());
    EXPECT_EQ(gen0 + 1, a.eng->zone_gen(1));
    zi = a.eng->zone_info(1);
    ASSERT_TRUE(zi.is_ok());
    EXPECT_TRUE(zi.value().empty());
    a.write_pattern(cap, 4, 43);
    a.expect_pattern(cap, 4, 43);
}

// ---------------------------------------------------------------------
// Crash durability + frozen-zone remount semantics
// ---------------------------------------------------------------------

TEST(EngineCrash, FlushedDataSurvivesPowerCutAllModes)
{
    for (RaidMode mode : kEngineModes) {
        SCOPED_TRACE(std::string(to_string(mode)));
        EngineArray a;
        a.make(mode);
        if (::testing::Test::HasFatalFailure())
            return;
        // 12 sectors (a full RAID-5 stripe at this geometry) plus a
        // 5-sector open-stripe tail, both flushed; then 7 unflushed.
        a.write_pattern(0, 12, 500);
        a.write_pattern(12, 5, 512);
        ASSERT_TRUE(a.flush().status.is_ok());
        a.write_pattern(17, 7, 517);
        a.crash_and_remount({PowerLossSpec::Policy::kDropCache, 0});
        if (::testing::Test::HasFatalFailure())
            return;
        auto zi = a.eng->zone_info(0);
        ASSERT_TRUE(zi.is_ok());
        // Acked flush = everything before it is a durability floor.
        EXPECT_GE(zi.value().written(), 17u);
        a.expect_pattern(0, 12, 500);
        a.expect_pattern(12, 5, 512);
        // Recovered non-empty zones are frozen until reset.
        EXPECT_TRUE(a.eng->zone_frozen(0));
        IoResult w = a.write(zi.value().written(), pattern_data(1, 9));
        EXPECT_EQ(StatusCode::kReadOnly, w.status.code());
        ASSERT_TRUE(a.reset_zone(0).status.is_ok());
        EXPECT_FALSE(a.eng->zone_frozen(0));
        a.write_pattern(0, 4, 600);
        a.expect_pattern(0, 4, 600);
    }
}

TEST(EngineCrash, FuaAckIsDurableAllModes)
{
    for (RaidMode mode : kEngineModes) {
        SCOPED_TRACE(std::string(to_string(mode)));
        EngineArray a;
        a.make(mode);
        if (::testing::Test::HasFatalFailure())
            return;
        WriteFlags fua;
        fua.fua = true;
        a.write_pattern(0, 6, 900, fua);
        EXPECT_GE(a.eng->stats().fua_dependency_flushes, 1u);
        a.crash_and_remount({PowerLossSpec::Policy::kDropCache, 0});
        if (::testing::Test::HasFatalFailure())
            return;
        auto zi = a.eng->zone_info(0);
        ASSERT_TRUE(zi.is_ok());
        EXPECT_GE(zi.value().written(), 6u);
        a.expect_pattern(0, 6, 900);
    }
}

TEST(EngineCrash, CleanRemountKeepsEverything)
{
    EngineArray a;
    a.make(RaidMode::kRaid6);
    const uint64_t cap = a.eng->zone_capacity();
    a.write_pattern(0, 20, 1);
    a.write_pattern(cap, 9, 2);
    ASSERT_TRUE(a.flush().status.is_ok());
    a.crash_and_remount({PowerLossSpec::Policy::kKeepAll, 0});
    a.expect_pattern(0, 20, 1);
    a.expect_pattern(cap, 9, 2);
    auto zi = a.eng->zone_info(0);
    ASSERT_TRUE(zi.is_ok());
    EXPECT_EQ(20u, zi.value().written());
}

TEST(EngineCrash, InterruptedResetRollsForwardAtMount)
{
    EngineArray a;
    a.make(RaidMode::kRaid5);
    a.write_pattern(0, 12, 3);
    ASSERT_TRUE(a.flush().status.is_ok());
    uint64_t gen0 = a.eng->zone_gen(0);
    ASSERT_TRUE(a.reset_zone(0).status.is_ok());
    // The reset-done record may or may not be durable yet; power-cut
    // and remount must converge on "zone 0 is reset" either way.
    a.crash_and_remount({PowerLossSpec::Policy::kKeepAll, 0});
    EXPECT_GE(a.eng->zone_gen(0), gen0);
    auto zi = a.eng->zone_info(0);
    ASSERT_TRUE(zi.is_ok());
    EXPECT_TRUE(zi.value().empty());
    a.write_pattern(0, 4, 4);
    a.expect_pattern(0, 4, 4);
}

// ---------------------------------------------------------------------
// Degraded operation
// ---------------------------------------------------------------------

TEST(EngineDegraded, RedundantModesServeReadsWithOneMemberDown)
{
    for (RaidMode mode : {RaidMode::kRaid1, RaidMode::kRaid5,
                          RaidMode::kRaid6, RaidMode::kRaid10,
                          RaidMode::kAuto}) {
        SCOPED_TRACE(std::string(to_string(mode)));
        EngineArray a;
        a.make(mode);
        if (::testing::Test::HasFatalFailure())
            return;
        a.write_pattern(0, 24, 10);
        ASSERT_TRUE(a.flush().status.is_ok());
        a.eng->mark_device_failed(1);
        EXPECT_TRUE(a.eng->degraded());
        EXPECT_EQ(1, a.eng->failed_device());
        a.expect_pattern(0, 24, 10);
        // Force reconstruction of a mid-range slice.
        a.expect_pattern_slice(0, 24, 10, 6, 7);
        EXPECT_FALSE(a.eng->data_loss());
        // Degraded writes keep flowing and stay readable.
        a.write_pattern(24, 8, 34);
        a.expect_pattern(24, 8, 34);
    }
}

TEST(EngineDegraded, Raid6SurvivesTwoFailures)
{
    EngineArray a;
    a.make(RaidMode::kRaid6);
    a.write_pattern(0, 24, 20);
    ASSERT_TRUE(a.flush().status.is_ok());
    a.eng->mark_device_failed(0);
    a.eng->mark_device_failed(2);
    EXPECT_FALSE(a.eng->data_loss());
    a.expect_pattern(0, 24, 20);
    EXPECT_GE(a.eng->stats().reconstructed_sectors, 1u);
    // A third failure exceeds the tolerance: IO errors out.
    a.eng->mark_device_failed(3);
    EXPECT_TRUE(a.eng->data_loss());
    EXPECT_FALSE(a.read(0, 24).status.is_ok());
    EXPECT_FALSE(a.write(24, pattern_data(4, 1)).status.is_ok());
}

TEST(EngineDegraded, Raid0SurfacesDataLoss)
{
    EngineArray a;
    a.make(RaidMode::kRaid0);
    a.write_pattern(0, 32, 30);
    ASSERT_TRUE(a.flush().status.is_ok());
    a.eng->mark_device_failed(1);
    EXPECT_TRUE(a.eng->data_loss());
    // Chunks on the lost member are gone; reads covering them fail.
    EXPECT_FALSE(a.read(0, 32).status.is_ok());
    EXPECT_FALSE(a.write(32, pattern_data(4, 1)).status.is_ok());
}

TEST(EngineDegraded, OpenStripeTailServesDegradedReads)
{
    // 5 sectors = an incomplete stripe: its parity is only in the tail
    // buffer, so a degraded read must be served from there.
    EngineArray a;
    a.make(RaidMode::kRaid5);
    a.write_pattern(0, 5, 40);
    a.eng->mark_device_failed(0);
    a.expect_pattern(0, 5, 40);
    EXPECT_GE(a.eng->stats().degraded_reads, 1u);
}

// ---------------------------------------------------------------------
// Rebuild
// ---------------------------------------------------------------------

TEST(EngineRebuild, Raid5RebuildRestoresRedundancy)
{
    EngineArray a;
    a.make(RaidMode::kRaid5);
    const uint64_t cap = a.eng->zone_capacity();
    a.write_pattern(0, 24, 50); // two full stripes
    a.write_pattern(cap, 17, 51); // stripe + open tail
    ASSERT_TRUE(a.finish_zone(2).status.is_ok()); // empty finished zone
    ASSERT_TRUE(a.flush().status.is_ok());
    a.eng->mark_device_failed(1);
    a.write_pattern(24, 12, 52); // degraded write
    // Physically swap the member for a factory-fresh one, then rebuild.
    a.devs[1]->replace();
    Status s = a.rebuild(1);
    ASSERT_TRUE(s.is_ok()) << s.to_string();
    EXPECT_FALSE(a.eng->degraded());
    EXPECT_GE(a.eng->stats().zones_rebuilt, 1u);
    // Prove the rebuilt member carries real data: fail another member
    // and read everything back through reconstruction paths that now
    // need member 1.
    a.eng->mark_device_failed(3);
    a.expect_pattern(0, 24, 50);
    a.expect_pattern(24, 12, 52);
    a.expect_pattern(cap, 17, 51);
    // New writes after rebuild land on the rebuilt member too.
    a.write_pattern(cap + 17, 7, 53);
    a.expect_pattern(cap + 17, 7, 53);
}

TEST(EngineRebuild, MirrorRebuildAndBusySemantics)
{
    EngineArray a;
    a.make(RaidMode::kRaid1, 2);
    a.write_pattern(0, 10, 60);
    ASSERT_TRUE(a.flush().status.is_ok());
    a.eng->mark_device_failed(0);
    a.write_pattern(10, 6, 61);
    a.devs[0]->replace();
    Status s = a.rebuild(0);
    ASSERT_TRUE(s.is_ok()) << s.to_string();
    a.eng->mark_device_failed(1);
    a.expect_pattern(0, 10, 60);
    a.expect_pattern(10, 6, 61);
}

TEST(EngineRebuild, SpareLifecycleAutoFailover)
{
    EngineArray a;
    a.make(RaidMode::kRaid5);
    a.write_pattern(0, 24, 70);
    ASSERT_TRUE(a.flush().status.is_ok());
    auto spare = std::make_unique<ZnsDevice>(a.loop.get(),
                                             a.device_config(9));
    a.eng->set_spare(spare.get());
    bool rebuilt = false;
    Status rs;
    ZonedEngine::LifecycleConfig lc;
    lc.auto_rebuild = true;
    lc.on_rebuild_done = [&](uint32_t dev, Status st) {
        EXPECT_EQ(2u, dev);
        rs = st;
        rebuilt = true;
    };
    a.eng->set_lifecycle(std::move(lc));
    a.eng->mark_device_failed(2);
    a.loop->run_until_pred([&] { return rebuilt; });
    ASSERT_TRUE(rebuilt);
    ASSERT_TRUE(rs.is_ok()) << rs.to_string();
    EXPECT_EQ(1u, a.eng->stats().auto_failovers);
    EXPECT_EQ(1u, a.eng->stats().spares_promoted);
    EXPECT_FALSE(a.eng->degraded());
    // The array is fully redundant again on the promoted spare.
    a.eng->mark_device_failed(0);
    a.expect_pattern(0, 24, 70);
}

// ---------------------------------------------------------------------
// Auto mode
// ---------------------------------------------------------------------

TEST(EngineAuto, KindFollowsResetGeneration)
{
    EngineArray a;
    a.make(RaidMode::kAuto);
    // Fresh zone, generation 0 < auto_hot_resets (2): parity.
    EXPECT_FALSE(a.eng->zone_kind_decided(0));
    a.write_pattern(0, 4, 80);
    EXPECT_TRUE(a.eng->zone_kind_decided(0));
    EXPECT_EQ(ZonedEngine::ZoneKind::kParity, a.eng->zone_kind(0));
    EXPECT_EQ(1u, a.eng->stats().auto_parity_zones);
    // Two resets make the zone "hot": mirrored from then on.
    ASSERT_TRUE(a.reset_zone(0).status.is_ok());
    a.write_pattern(0, 4, 81);
    ASSERT_TRUE(a.reset_zone(0).status.is_ok());
    EXPECT_EQ(2u, a.eng->zone_gen(0));
    a.write_pattern(0, 4, 82);
    EXPECT_EQ(ZonedEngine::ZoneKind::kMirror, a.eng->zone_kind(0));
    EXPECT_EQ(1u, a.eng->stats().auto_mirror_zones);
    a.expect_pattern(0, 4, 82);
    // The kind decision is journaled: it survives a clean remount.
    ASSERT_TRUE(a.flush().status.is_ok());
    a.crash_and_remount({PowerLossSpec::Policy::kKeepAll, 0});
    EXPECT_EQ(ZonedEngine::ZoneKind::kMirror, a.eng->zone_kind(0));
    a.expect_pattern(0, 4, 82);
    // An undecided cold zone stays parity after remount.
    ASSERT_TRUE(a.reset_zone(1).status.is_ok());
    a.write_pattern(a.eng->zone_capacity(), 4, 83);
    EXPECT_EQ(ZonedEngine::ZoneKind::kParity, a.eng->zone_kind(1));
}

// ---------------------------------------------------------------------
// Scrub
// ---------------------------------------------------------------------

TEST(EngineScrub, CleanArrayHasNoMismatches)
{
    for (RaidMode mode : kEngineModes) {
        SCOPED_TRACE(std::string(to_string(mode)));
        EngineArray a;
        a.make(mode);
        if (::testing::Test::HasFatalFailure())
            return;
        a.write_pattern(0, 24, 90);
        ASSERT_TRUE(a.flush().status.is_ok());
        ZonedArray::ScrubReport rep;
        Status s = a.eng->scrub_all(&rep);
        ASSERT_TRUE(s.is_ok()) << s.to_string();
        EXPECT_GE(rep.stripes_scanned, 1u);
        EXPECT_EQ(0u, rep.parity_mismatches);
        EXPECT_EQ(0u, rep.crc_mismatches);
        EXPECT_EQ(0u, rep.unrecoverable);
    }
}

TEST(EngineScrub, DetectsLatentCorruption)
{
    EngineArray a;
    a.make(RaidMode::kRaid5);
    a.write_pattern(0, 24, 91); // two settled stripes
    ASSERT_TRUE(a.flush().status.is_ok());
    // Corrupt one data chunk of stripe 0 on whichever member holds
    // unit 0 (physical zone 1, row 0).
    uint32_t victim = a.eng->chunk_dev(0, 0, 0);
    a.devs[victim]->corrupt(1 * 64, 4, 1234);
    ZonedArray::ScrubReport rep;
    Status s = a.eng->scrub_all(&rep);
    ASSERT_TRUE(s.is_ok()) << s.to_string();
    EXPECT_GE(rep.crc_mismatches + rep.parity_mismatches, 1u);
}

TEST(EngineScrub, ReadPathRepairsCorruptChunk)
{
    EngineArray a;
    a.make(RaidMode::kRaid5);
    a.write_pattern(0, 24, 92);
    ASSERT_TRUE(a.flush().status.is_ok());
    uint32_t victim = a.eng->chunk_dev(0, 0, 0);
    a.devs[victim]->corrupt(1 * 64, 4, 4321);
    // The read detects the bad CRC and re-serves from redundancy.
    a.expect_pattern(0, 24, 92);
    EXPECT_GE(a.eng->stats().crc_mismatches, 1u);
    EXPECT_GE(a.eng->stats().read_repairs, 1u);
}

// ---------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------

TEST(EngineWal, ResetCyclesConsumeSlotsUntilNoSpace)
{
    EngineArray a;
    a.make(RaidMode::kRaid5);
    EXPECT_EQ(64u, a.eng->wal_slots());
    EXPECT_EQ(0u, a.eng->wal_used());
    // Each non-empty reset journals an intent + a done record.
    bool saw_nospace = false;
    uint64_t last_seed = 0;
    for (int i = 0; i < 40 && !saw_nospace; ++i) {
        last_seed = 100 + static_cast<uint64_t>(i);
        a.write_pattern(0, 4, last_seed);
        IoResult r = a.reset_zone(0);
        if (!r.status.is_ok()) {
            EXPECT_EQ(StatusCode::kNoSpace, r.status.code());
            saw_nospace = true;
        }
    }
    EXPECT_TRUE(saw_nospace);
    EXPECT_LE(a.eng->wal_used(), a.eng->wal_slots());
    // The failed reset left the zone intact; reads keep working after
    // journal exhaustion.
    a.expect_pattern(0, 4, last_seed);
}

// ---------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------

TEST(EngineObs, StatsLinkIntoRegistryUnderModePrefix)
{
    EngineArray a;
    a.make(RaidMode::kRaid5);
    obs::MetricsRegistry reg;
    a.eng->attach_observability(&reg, nullptr);
    a.write_pattern(0, 12, 110);
    a.expect_pattern(0, 12, 110);
    ASSERT_TRUE(a.flush().status.is_ok());
    auto samples = reg.snapshot();
    uint64_t writes = 0, reads = 0;
    bool saw_dev = false, saw_lat = false;
    for (const auto &smp : samples) {
        if (smp.name == "raid5.logical_writes")
            writes = smp.value;
        if (smp.name == "raid5.logical_reads")
            reads = smp.value;
        if (smp.name.rfind("raid5.dev0.", 0) == 0)
            saw_dev = true;
        if (smp.name == "raid5.write.total_ns")
            saw_lat = true;
    }
    EXPECT_EQ(a.eng->stats().logical_writes, writes);
    EXPECT_EQ(a.eng->stats().logical_reads, reads);
    EXPECT_GE(writes, 1u);
    EXPECT_GE(reads, 1u);
    EXPECT_TRUE(saw_dev);
    EXPECT_TRUE(saw_lat);
}

} // namespace
} // namespace raizn
