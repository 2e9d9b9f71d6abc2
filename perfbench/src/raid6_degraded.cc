/**
 * @file
 * raid6_degraded: ZonedEngine RAID-6 on 6 ZNS members. Set-up fills ten
 * logical zones (each 15/16 to full) with ten sequential writer jobs
 * (QD 1, mostly 4 KiB blocks with some 64 KiB). One member is replaced
 * and rebuilt online, then two neighbouring members fail. Each timed
 * step reads one zone sequentially (128 KiB, QD 4) and then the whole
 * array at random (4 KiB, QD 16), every sector verified, so most reads
 * rebuild data from P+Q through GF(256). Engine reconstruction and
 * GF(256) dominate and reads cost more than writes, the reverse of
 * raizn_fio; RAIZN, kv, env and mdraid never run.
 */
#include "bench.h"

#include "array/engine.h"
#include "common/logging.h"
#include "zns/zns_device.h"

namespace pb {

namespace {

constexpr uint32_t kDevs = 6;
constexpr uint32_t kZones = 10;
constexpr uint32_t kZoneSectors = 1024; ///< 4 MiB physical zones
constexpr uint32_t kDevZones = 1 + kZones + 1;
/// Logical zone capacity: 4 data units per stripe.
constexpr uint64_t kZoneCap = 4ull * kZoneSectors;
/// Every zone is filled at least this far (15/16 of its capacity).
constexpr uint64_t kMinFill = kZoneCap / 16 * 15;
constexpr uint32_t kSeqBs = 32;
constexpr uint32_t kSeqQd = 4;
/// Random reads per step; kZones steps make one quantum.
constexpr uint64_t kRandReads = 1000;
constexpr uint32_t kRandQd = 16;
constexpr uint64_t kFinalReads = 2000;

class Raid6Degraded : public Workload
{
  public:
    explicit Raid6Degraded(const RunOpts &o)
        : o_(o), rng_(o.seed), frng_(o.seed ^ 0xdead6ull)
    {
    }

    void
    setup() override
    {
        loop_ = std::make_unique<EventLoop>();
        g_tr.reset(loop_.get(), o_.traced);
        ZnsDeviceConfig c;
        c.nzones = kDevZones;
        c.zone_size = c.zone_capacity = kZoneSectors;
        c.data_mode = DataMode::kStore;
        c.timing = TimingParams::zns();
        c.name = "zns";
        m_.build(loop_.get(), kDevs, c, o_.traced, Layer::kZns,
                 Layer::kEngine);
        EngineConfig cfg;
        cfg.mode = RaidMode::kRaid6;
        cfg.su_sectors = 16;
        auto e = ZonedEngine::create(loop_.get(), m_.members, cfg);
        if (!e.is_ok())
            RAIZN_PANIC("raid6 create: %s", e.status().to_string().c_str());
        eng_ = std::move(e).value();
        if (o_.traced) {
            trace_ = std::make_unique<obs::TraceRecorder>(1 << 20);
            eng_->attach_observability(nullptr, trace_.get());
        }
        io_ = std::make_unique<ArrayIo>(loop_.get(), eng_.get(),
                                        Layer::kEngine, o_.seed, &r);
        // Each zone is filled to a seeded point between kMinFill and
        // its capacity, so the tail stripes, the WAF and the rebuild
        // size vary by seed.
        for (uint32_t z = 0; z < kZones; ++z) {
            ZoneInfo zi = eng_->zone_info(z).value();
            uint64_t fill = kMinFill +
                rng_.next_below(kZoneCap - kMinFill + 1);
            zones_.push_back({zi.start, zi.start + fill});
        }

        // Fill: the write half of the virtual metrics and of the trace
        // window.
        uint64_t dev0 = dev_written_bytes(m_.raw);
        window([&] { io_->seq_write(zones_, 0, rng_, 0.9, 16); });
        r.dev_write_bytes = dev_written_bytes(m_.raw) - dev0;
        r.waf_user_bytes = r.write_bytes;
    }

    void
    quantum() override
    {
        uint64_t rec0 = eng_->stats().reconstructed_sectors;
        window([&] {
            for (uint32_t i = 0; i < kZones; ++i)
                extend_step();
        });
        reconstructed_ = eng_->stats().reconstructed_sectors - rec0;
        const EngineStats &es = eng_->stats();
        fault_metrics(*eng_, es.io_retries, es.io_timeouts, 0, &r.layer);
    }

    /// A sequential pass over the first kMinFill sectors of the next
    /// zone in turn (what every seed fills, so a step's work does not
    /// vary with the fill), then random reads over all the data. Steps
    /// are short so the host rate rests on many of them.
    void
    extend_step() override
    {
        const Extent &z = zones_[step_++ % kZones];
        io_->seq_read({{z.lo, z.lo + kMinFill}}, kSeqBs, kSeqQd, 0);
        io_->rand_read(zones_, kRandReads, kRandQd, 1, 0, rng_);
    }

    bool rebuild_first() const override { return true; }

    /// The fastest step. The steps are equal units of work, dominated
    /// by byte-wise GF(256) and CRC table loops, which neighbours on a
    /// shared host slow by up to a third for seconds at a time. The
    /// fastest of the ~200 short steps in a run is the rate the program
    /// reaches when left alone, as timeit's minimum is: the median
    /// follows the neighbours, the best step follows the program.
    double step_rate_quantile() const override { return 1.0; }

    void
    rebuild() override
    {
        // Rebuild one replaced member, then fail two members for the
        // timed reads. (The engine cannot rebuild a member while a
        // second one is down: "rebuild: stripe data unavailable".)
        uint32_t d = static_cast<uint32_t>(frng_.next_below(kDevs));
        loop_->run();
        eng_->mark_device_failed(d);
        m_.devs[d]->replace();
        std::vector<DeviceStats> b = snap(m_.raw);
        r.mttr_ns = rebuild_member(loop_.get(), eng_.get(), d, &r);
        uint64_t rd = 0;
        for (uint32_t i = 0; i < kDevs; ++i)
            if (i != d)
                rd += m_.raw[i]->stats().sectors_read - b[i].sectors_read;
        uint64_t wr = m_.raw[d]->stats().sectors_written;
        rebuild_ratio_ = wr == 0 ? 0.0 : static_cast<double>(rd) / wr;
        // The failed pair is two neighbours at a seeded position. Parity
        // rotates by one member per stripe, so the mix of P, Q and P+Q
        // reconstructions (and the host cost of a read) depends only on
        // the distance between the two; neighbours lose two data units
        // in the most stripes, the heaviest GF(256) case.
        uint32_t f0 = static_cast<uint32_t>(frng_.next_below(kDevs));
        uint32_t f1 = (f0 + 1) % kDevs;
        eng_->mark_device_failed(f0);
        eng_->mark_device_failed(f1);
    }

    void
    finish() override
    {
        ZonedArray::ScrubReport rep;
        Status s = eng_->scrub_all(&rep);
        r.scrub_ok = s.is_ok() && rep.parity_mismatches == 0 &&
            rep.crc_mismatches == 0 && rep.unrecoverable == 0;
        io_->rand_read(zones_, kFinalReads, kRandQd, 1, 0, frng_);
    }

    void
    layer_metrics(const SelfTimes &st) override
    {
        auto &L = r.layer;
        double writes = static_cast<double>(r.write_lat.size());
        double reads = static_cast<double>(r.read_lat.size());
        L["engine.calls"] =
            static_cast<double>(st.calls[int(Layer::kEngine)]);
        L["engine.host_self_ns_per_read"] =
            st.of(Layer::kEngine, OpClass::kRead) / reads;
        L["engine.host_self_ns_per_write"] =
            st.of(Layer::kEngine, OpClass::kWrite) / writes;
        L["engine.reconstructed_sectors_per_read"] = reconstructed_ / reads;
        L["engine.rebuild_read_bytes_per_rebuilt_byte"] = rebuild_ratio_;
        device_metrics("zns", m_.dt, busy_, TimingParams::zns().units,
                       window_virt_, st, Layer::kZns, &L);
        L["zns.write_bytes_per_user_byte"] =
            static_cast<double>(r.dev_write_bytes) / r.write_bytes;
        L["zns.zone_resets"] = static_cast<double>(zone_resets_);
        stage_metrics(*trace_, "engine", &L);
    }

    uint64_t ops() const override { return io_->ops(); }

  private:
    /// Runs `fn` as recorded, traced work: virtual metrics, the trace
    /// window, and the devices' busy time and zone resets.
    template <class Fn>
    void
    window(Fn fn)
    {
        std::vector<DeviceStats> s0 = snap(m_.raw);
        Tick v0 = loop_->now();
        io_->record = true;
        g_tr.window_begin();
        fn();
        g_tr.window_end();
        io_->record = false;
        window_virt_ += loop_->now() - v0;
        busy_.resize(kDevs);
        for (uint32_t i = 0; i < kDevs; ++i) {
            const DeviceStats &s1 = m_.raw[i]->stats();
            busy_[i] += s1.busy_ns - s0[i].busy_ns;
            zone_resets_ += s1.zone_resets - s0[i].zone_resets;
        }
    }

    RunOpts o_;
    Rng rng_, frng_; ///< fill and timed reads; rebuild and final checks
    std::unique_ptr<EventLoop> loop_;
    Members<ZnsDevice> m_;
    std::unique_ptr<obs::TraceRecorder> trace_;
    std::unique_ptr<ZonedEngine> eng_;
    std::unique_ptr<ArrayIo> io_;
    std::vector<Extent> zones_;
    Tick window_virt_ = 0;
    double reconstructed_ = 0, rebuild_ratio_ = 0;
    uint64_t zone_resets_ = 0;
    uint64_t step_ = 0;
    std::vector<uint64_t> busy_;
};

} // namespace

std::unique_ptr<Workload>
make_raid6_degraded(const RunOpts &o)
{
    return std::make_unique<Raid6Degraded>(o);
}

} // namespace pb
