/**
 * @file
 * Unit tests for the metadata zone manager: role bindings, appends,
 * swap-zone GC with checkpointing (Fig. 4), scan/replay ordering,
 * and swap borrowing.
 */
#include <gtest/gtest.h>

#include "raizn/layout.h"
#include "raizn/md_manager.h"
#include "sim/event_loop.h"
#include "zns/zns_device.h"

namespace raizn {
namespace {

class MdManagerTest : public ::testing::Test
{
  protected:
    void SetUp() override { build(4); } // extra swap zone

    void
    build(uint32_t md_zones)
    {
        cfg_.num_devices = 3;
        cfg_.su_sectors = 4;
        cfg_.md_zones_per_device = md_zones;
        for (int i = 0; i < 3; ++i) {
            ZnsDeviceConfig dc;
            dc.nzones = 8;
            dc.zone_size = 32; // tiny zones: GC triggers fast
            devs_.push_back(std::make_unique<ZnsDevice>(&loop_, dc));
            ptrs_.push_back(devs_.back().get());
        }
        layout_ = std::make_unique<Layout>(cfg_, ptrs_[0]->geometry());
        md_ = std::make_unique<MdManager>(&loop_, layout_.get(), ptrs_);
        ASSERT_TRUE(md_->format().is_ok());
    }

    Status
    append_sync(uint32_t dev, MdZoneRole role, MdAppend app,
                bool durable = false)
    {
        Status out;
        bool done = false;
        md_->append(dev, role, std::move(app), durable, [&](Status s) {
            out = s;
            done = true;
        });
        loop_.run_until_pred([&] { return done; });
        return out;
    }

    static MdAppend
    reset_record(uint32_t zone, uint64_t gen)
    {
        MdAppend app;
        app.header.type = MdType::kZoneResetLog;
        app.header.generation = gen;
        app.inline_data = encode_zone_reset({zone});
        return app;
    }

    EventLoop loop_;
    RaiznConfig cfg_;
    std::vector<std::unique_ptr<ZnsDevice>> devs_;
    std::vector<BlockDevice *> ptrs_;
    std::unique_ptr<Layout> layout_;
    std::unique_ptr<MdManager> md_;
};

TEST_F(MdManagerTest, FormatBindsRoles)
{
    // Each device: md zone 0 = general, 1 = parity log (role records
    // consume 1 sector each).
    EXPECT_EQ(md_->active_zone_wp(0, MdZoneRole::kGeneral),
              layout_->md_zone_start(0) + 1);
    EXPECT_EQ(md_->active_zone_wp(0, MdZoneRole::kParityLog),
              layout_->md_zone_start(1) + 1);
}

TEST_F(MdManagerTest, AppendAdvancesWp)
{
    uint64_t before = md_->active_zone_wp(1, MdZoneRole::kGeneral);
    ASSERT_TRUE(append_sync(1, MdZoneRole::kGeneral,
                            reset_record(0, 0)).is_ok());
    EXPECT_EQ(md_->active_zone_wp(1, MdZoneRole::kGeneral), before + 1);
}

TEST_F(MdManagerTest, ScanReturnsAppendedEntries)
{
    ASSERT_TRUE(append_sync(0, MdZoneRole::kGeneral,
                            reset_record(3, 7), true)
                    .is_ok());
    auto logs = md_->scan();
    ASSERT_TRUE(logs.is_ok());
    bool found = false;
    for (const MdEntry &e : logs.value()[0].entries) {
        if (e.header.type == MdType::kZoneResetLog) {
            auto rec = decode_zone_reset(e);
            ASSERT_TRUE(rec.is_ok());
            EXPECT_EQ(rec.value().logical_zone, 3u);
            EXPECT_EQ(e.header.generation, 7u);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST_F(MdManagerTest, GcSwitchesToSwapZone)
{
    // Snapshot provider that checkpoints one marker record.
    md_->set_snapshot_provider([](uint32_t, MdZoneRole role) {
        std::vector<MdAppend> out;
        if (role == MdZoneRole::kGeneral) {
            MdAppend app;
            app.header.type = MdType::kZoneResetLog;
            app.header.generation = 42;
            app.inline_data = encode_zone_reset({9});
            out.push_back(std::move(app));
        }
        return out;
    });
    // Zone capacity is 32 sectors; role record took 1: fill it.
    for (int i = 0; i < 80; ++i) {
        ASSERT_TRUE(append_sync(0, MdZoneRole::kGeneral,
                                reset_record(1, static_cast<uint64_t>(i)))
                        .is_ok());
    }
    loop_.run();
    EXPECT_GT(md_->gc_runs(), 0u);
    // After GC, scan still yields the checkpointed marker plus recent
    // entries, flagged as checkpoint.
    auto logs = md_->scan();
    ASSERT_TRUE(logs.is_ok());
    bool checkpointed = false;
    size_t entries = 0;
    for (const MdEntry &e : logs.value()[0].entries) {
        entries++;
        if (e.header.checkpoint &&
            e.header.type == MdType::kZoneResetLog) {
            auto rec = decode_zone_reset(e);
            if (rec.is_ok() && rec.value().logical_zone == 9)
                checkpointed = true;
        }
    }
    EXPECT_TRUE(checkpointed) << "checkpoint entry missing";
    EXPECT_LT(entries, 80u) << "old zone should have been recycled";
}

TEST_F(MdManagerTest, GcIsolatedPerRole)
{
    // Filling the parity-log zone must not disturb the general zone.
    uint64_t general_wp = md_->active_zone_wp(0, MdZoneRole::kGeneral);
    for (int i = 0; i < 80; ++i) {
        MdAppend app;
        app.header.type = MdType::kPartialParity;
        app.header.start_lba = static_cast<uint64_t>(i);
        app.header.end_lba = static_cast<uint64_t>(i) + 1;
        app.inline_data.assign(12, 0);
        app.payload.assign(kSectorSize, 0xaa);
        ASSERT_TRUE(
            append_sync(0, MdZoneRole::kParityLog, std::move(app))
                .is_ok());
    }
    loop_.run();
    EXPECT_EQ(md_->active_zone_wp(0, MdZoneRole::kGeneral), general_wp);
}

TEST_F(MdManagerTest, BorrowAndReturnSwap)
{
    auto sw = md_->borrow_swap(2);
    ASSERT_TRUE(sw.is_ok());
    uint32_t idx = sw.value();
    EXPECT_GE(idx, 2u); // zones 0/1 hold the roles
    // Both remaining swaps borrowed -> exhausted.
    auto sw2 = md_->borrow_swap(2);
    ASSERT_TRUE(sw2.is_ok());
    EXPECT_FALSE(md_->borrow_swap(2).is_ok());
    md_->return_swap(2, idx);
    EXPECT_TRUE(md_->borrow_swap(2).is_ok());
}

TEST_F(MdManagerTest, FailedDeviceAppendsSucceedAsNoops)
{
    devs_[1]->fail();
    ASSERT_TRUE(append_sync(1, MdZoneRole::kGeneral,
                            reset_record(0, 0)).is_ok());
    auto logs = md_->scan();
    ASSERT_TRUE(logs.is_ok());
    EXPECT_FALSE(logs.value()[1].alive);
    EXPECT_TRUE(logs.value()[1].entries.empty());
}

TEST_F(MdManagerTest, ScanSurvivesPowerCutDuringGc)
{
    md_->set_snapshot_provider(
        [](uint32_t, MdZoneRole) { return std::vector<MdAppend>(); });
    for (int i = 0; i < 40; ++i) {
        ASSERT_TRUE(append_sync(0, MdZoneRole::kGeneral,
                                reset_record(1, static_cast<uint64_t>(i)))
                        .is_ok());
    }
    // Trigger appends near the GC boundary but cut power before the
    // old zone's reset can land.
    md_->append(0, MdZoneRole::kGeneral, reset_record(2, 99), false,
                [](Status) {});
    for (auto &d : devs_)
        d->power_cut({PowerLossSpec::Policy::kDropCache, 5});
    EventLoop loop2;
    for (auto &d : devs_)
        d->reattach(&loop2);
    MdManager md2(&loop2, layout_.get(), ptrs_);
    auto logs = md2.scan();
    ASSERT_TRUE(logs.is_ok()) << logs.status().to_string();
    // Whatever survived is parseable and the manager is appendable.
    Status out;
    bool done = false;
    md2.append(0, MdZoneRole::kGeneral, reset_record(3, 1), true,
               [&](Status s) {
                   out = s;
                   done = true;
               });
    loop2.run_until_pred([&] { return done; });
    EXPECT_TRUE(out.is_ok()) << out.to_string();
}

/// The shipped default: per device one general zone, one parity-log
/// zone and a single swap zone.
class MdManagerOneSwapTest : public MdManagerTest
{
  protected:
    void
    SetUp() override
    {
        build(3);
        md_->set_snapshot_provider([this](uint32_t, MdZoneRole role) {
            std::vector<MdAppend> out;
            for (uint64_t seq : live_[static_cast<uint32_t>(role)])
                out.push_back(entry(role, seq));
            return out;
        });
    }

    /// A one-sector entry whose generation is its sequence number.
    static MdAppend
    entry(MdZoneRole role, uint64_t seq)
    {
        MdAppend app;
        app.header.type = role == MdZoneRole::kGeneral
            ? MdType::kZoneResetLog
            : MdType::kPartialParity;
        app.header.generation = seq;
        app.inline_data.assign(12, 0);
        return app;
    }

    /// Appends one-sector entries to (dev 0, role) until its zone is
    /// full to the last sector; every fifth is marked live, so the GC
    /// checkpoint carries it.
    void
    fill_to_brim(MdZoneRole role)
    {
        uint64_t zone_end = layout_->md_zone_start(static_cast<uint32_t>(
                                role == MdZoneRole::kGeneral ? 0 : 1)) +
            layout_->phys_zone_cap();
        while (md_->active_zone_wp(0, role) < zone_end) {
            uint64_t seq = next_seq_++;
            if (seq % 5 == 0)
                live_[static_cast<uint32_t>(role)].push_back(seq);
            ASSERT_TRUE(append_sync(0, role, entry(role, seq)).is_ok());
        }
        ASSERT_EQ(md_->active_zone_wp(0, role), zone_end);
    }

    /// Generations replayed by scan() on device 0 for entries of
    /// `role`'s type, in replay order.
    std::vector<uint64_t>
    replayed(MdZoneRole role)
    {
        auto logs = md_->scan();
        EXPECT_TRUE(logs.is_ok());
        std::vector<uint64_t> out;
        if (!logs.is_ok())
            return out;
        for (const MdEntry &e : logs.value()[0].entries) {
            if (e.header.type == entry(role, 0).header.type)
                out.push_back(e.header.generation);
        }
        return out;
    }

    std::vector<uint64_t> live_[2];
    uint64_t next_seq_ = 1;
};

TEST_F(MdManagerOneSwapTest, BothLogsFullWaitForTheOneSwapZone)
{
    fill_to_brim(MdZoneRole::kGeneral);
    fill_to_brim(MdZoneRole::kParityLog);
    ASSERT_EQ(md_->gc_runs(), 0u);

    // One append per role before the loop runs: the general log takes
    // the only swap zone, so the parity log must wait until the general
    // log's old zone is reset back into the pool.
    Status st[2] = {Status(StatusCode::kIoError, "pending"),
                    Status(StatusCode::kIoError, "pending")};
    uint64_t seq[2];
    for (MdZoneRole role : {MdZoneRole::kGeneral, MdZoneRole::kParityLog}) {
        uint32_t r = static_cast<uint32_t>(role);
        seq[r] = next_seq_++;
        md_->append(0, role, entry(role, seq[r]), /*durable=*/true,
                    [&st, r](Status s) { st[r] = s; });
    }
    EXPECT_EQ(md_->parked(0), 1u);
    loop_.run();
    EXPECT_TRUE(st[0].is_ok()) << st[0].to_string();
    EXPECT_TRUE(st[1].is_ok()) << st[1].to_string();
    EXPECT_EQ(md_->parked(0), 0u);
    EXPECT_EQ(md_->gc_runs(), 2u);

    // Each log replays its checkpoint, then the new entry: once each,
    // in order, and nothing from the recycled zones.
    for (MdZoneRole role : {MdZoneRole::kGeneral, MdZoneRole::kParityLog}) {
        uint32_t r = static_cast<uint32_t>(role);
        std::vector<uint64_t> want = live_[r];
        want.push_back(seq[r]);
        EXPECT_EQ(replayed(role), want) << "role " << r;
    }
}

TEST_F(MdManagerOneSwapTest, BorrowedSwapParksAppendsUntilReturned)
{
    auto sw = md_->borrow_swap(0);
    ASSERT_TRUE(sw.is_ok());
    fill_to_brim(MdZoneRole::kGeneral);

    // The log is full and its swap zone is lent out: appends wait, in
    // order, and get no slot until the zone comes back.
    std::vector<uint64_t> done_seqs;
    std::vector<uint64_t> placed;
    std::vector<uint64_t> seqs;
    for (int i = 0; i < 3; ++i) {
        uint64_t seq = next_seq_++;
        seqs.push_back(seq);
        md_->append(
            0, MdZoneRole::kGeneral, entry(MdZoneRole::kGeneral, seq),
            /*durable=*/false,
            [&done_seqs, seq](Status s) {
                EXPECT_TRUE(s.is_ok()) << s.to_string();
                done_seqs.push_back(seq);
            },
            [&placed](uint64_t pba) { placed.push_back(pba); });
    }
    loop_.run();
    EXPECT_TRUE(done_seqs.empty());
    EXPECT_TRUE(placed.empty());
    EXPECT_EQ(md_->parked(0), 3u);
    EXPECT_EQ(md_->gc_runs(), 0u);

    md_->return_swap(0, sw.value());
    loop_.run();
    EXPECT_EQ(done_seqs, seqs);
    EXPECT_EQ(md_->parked(0), 0u);
    EXPECT_EQ(md_->gc_runs(), 1u);
    // The entries landed in the returned zone, behind its role record
    // and the checkpoint.
    uint64_t first = layout_->md_zone_start(sw.value()) + 1 +
        live_[0].size();
    EXPECT_EQ(placed,
              (std::vector<uint64_t>{first, first + 1, first + 2}));

    std::vector<uint64_t> want = live_[0];
    want.insert(want.end(), seqs.begin(), seqs.end());
    EXPECT_EQ(replayed(MdZoneRole::kGeneral), want);
}

} // namespace
} // namespace raizn
