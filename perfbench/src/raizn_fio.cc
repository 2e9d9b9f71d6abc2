/**
 * @file
 * raizn_fio: RAIZN on 5 ZNS members (64 KiB stripe units, stored
 * data). Each cycle, eight §6.1-style sequential writer jobs (QD 1
 * each) fill one logical zone apiece with a 1:1 mix of 4 KiB and
 * 64 KiB blocks, so almost every write is partial-stripe; then one
 * random 4 KiB reader at QD 64 verifies sectors; then the zones are
 * reset for the next cycle. The host work is RAIZN's write path
 * (stripe buffers, partial-parity log), the event loop, the retrier
 * and the ZNS model; kv, env, mdraid, the engine and GF(256) never
 * run.
 */
#include "bench.h"

#include "common/logging.h"
#include "obs/ledger.h"
#include "raizn/volume.h"
#include "zns/zns_device.h"

namespace pb {

namespace {

constexpr uint32_t kDevs = 5;
constexpr uint32_t kJobs = 8;
constexpr uint32_t kZoneSectors = 1024; ///< 4 MiB physical zones
constexpr uint32_t kDevZones = 3 + kJobs + 2;
constexpr uint32_t kQuantumCycles = 3;
constexpr uint64_t kReadsPerCycle = 4000;
constexpr uint32_t kReadQd = 64;
constexpr uint64_t kFinalReads = 2000;

class RaiznFio : public Workload
{
  public:
    explicit RaiznFio(const RunOpts &o)
        : o_(o), rng_(o.seed), frng_(o.seed ^ 0xf1a1ull)
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
                 Layer::kRaizn);
        RaiznConfig cfg;
        cfg.num_devices = kDevs;
        cfg.su_sectors = 16;
        auto v = RaiznVolume::create(loop_.get(), m_.members, cfg);
        if (!v.is_ok())
            RAIZN_PANIC("raizn create: %s", v.status().to_string().c_str());
        vol_ = std::move(v).value();
        if (o_.traced) {
            trace_ = std::make_unique<obs::TraceRecorder>(1 << 20);
            ledger_ = std::make_unique<obs::IoLedger>();
            vol_->attach_observability(nullptr, trace_.get());
            vol_->attach_ledger(ledger_.get());
        }
        io_ = std::make_unique<ArrayIo>(loop_.get(), vol_.get(),
                                        Layer::kRaizn, o_.seed, &r);
        for (uint32_t z = 0; z < kJobs; ++z) {
            ZoneInfo zi = vol_->zone_info(z).value();
            zones_.push_back({zi.start, zi.start + zi.capacity});
        }
    }

    void
    quantum() override
    {
        std::vector<DeviceStats> s0 = snap(m_.raw);
        uint64_t dev0 = dev_written_bytes(m_.raw);
        Tick v0 = loop_->now();
        io_->record = true;
        g_tr.window_begin();
        for (uint32_t c = 0; c < kQuantumCycles; ++c)
            cycle();
        g_tr.window_end();
        io_->record = false;
        window_virt_ = loop_->now() - v0;
        r.dev_write_bytes = dev_written_bytes(m_.raw) - dev0;
        r.waf_user_bytes = r.write_bytes;
        for (uint32_t i = 0; i < kDevs; ++i) {
            const DeviceStats &s1 = m_.raw[i]->stats();
            zone_resets_ += s1.zone_resets - s0[i].zone_resets;
            busy_.push_back(s1.busy_ns - s0[i].busy_ns);
        }
        if (ledger_) {
            // Only the quantum runs in a traced pass before this point,
            // so the ledger's totals are the quantum's.
            pp_bytes_ = ledger_->cause_write_bytes(obs::Cause::kPpLog);
            parity_bytes_ = ledger_->cause_write_bytes(obs::Cause::kParity);
        }
        const VolumeStats &vs = vol_->stats();
        fault_metrics(*vol_, vs.io_retries, vs.io_timeouts,
                      vs.health_suspects, &r.layer);
    }

    void extend_step() override { cycle(); }

    void
    rebuild() override
    {
        // Rebuild one member of the quantum's full zones.
        uint32_t d = static_cast<uint32_t>(frng_.next_below(kDevs));
        loop_->run();
        vol_->mark_device_failed(d);
        m_.devs[d]->replace();
        r.mttr_ns = rebuild_member(loop_.get(), vol_.get(), d, &r);
    }

    void
    finish() override
    {
        ZonedArray::ScrubReport rep;
        Status s = vol_->scrub_all(&rep);
        r.scrub_ok = s.is_ok() && rep.parity_mismatches == 0 &&
            rep.crc_mismatches == 0 && rep.unrecoverable == 0;
        io_->rand_read(zones_, kFinalReads, kReadQd, 1, gen_ - 1, frng_);
    }

    void
    layer_metrics(const SelfTimes &st) override
    {
        auto &L = r.layer;
        double writes = static_cast<double>(r.write_lat.size());
        double reads = static_cast<double>(r.read_lat.size());
        double user = static_cast<double>(r.write_bytes);
        L["raizn.calls"] = static_cast<double>(st.calls[int(Layer::kRaizn)]);
        L["raizn.host_self_ns_per_write"] =
            st.of(Layer::kRaizn, OpClass::kWrite) / writes;
        L["raizn.host_self_ns_per_read"] =
            st.of(Layer::kRaizn, OpClass::kRead) / reads;
        L["raizn.dev_ops_per_op"] =
            st.calls[int(Layer::kZns)] / (writes + reads);
        L["raizn.pp_log_bytes_per_user_byte"] = pp_bytes_ / user;
        L["raizn.parity_bytes_per_user_byte"] = parity_bytes_ / user;
        device_metrics("zns", m_.dt, busy_, TimingParams::zns().units,
                       window_virt_, st, Layer::kZns, &L);
        L["zns.write_bytes_per_user_byte"] = r.dev_write_bytes / user;
        L["zns.zone_resets"] = static_cast<double>(zone_resets_);
        stage_metrics(*trace_, "raizn", &L);
    }

    uint64_t ops() const override { return io_->ops(); }

  private:
    /// One fill cycle: reset (after the first), write, verify.
    void
    cycle()
    {
        if (gen_ > 0)
            io_->reset_zones(0, kJobs);
        io_->seq_write(zones_, gen_, rng_, 0.5, 16);
        io_->rand_read(zones_, kReadsPerCycle, kReadQd, 1, gen_, rng_);
        gen_++;
    }

    RunOpts o_;
    Rng rng_, frng_; ///< timed work; rebuild and final checks
    std::unique_ptr<EventLoop> loop_;
    Members<ZnsDevice> m_;
    std::unique_ptr<obs::TraceRecorder> trace_;
    std::unique_ptr<obs::IoLedger> ledger_;
    std::unique_ptr<RaiznVolume> vol_;
    std::unique_ptr<ArrayIo> io_;
    std::vector<Extent> zones_;
    uint64_t gen_ = 0;
    Tick window_virt_ = 0;
    double pp_bytes_ = 0, parity_bytes_ = 0;
    uint64_t zone_resets_ = 0;
    std::vector<uint64_t> busy_;
};

} // namespace

std::unique_ptr<Workload>
make_raizn_fio(const RunOpts &o)
{
    return std::make_unique<RaiznFio>(o);
}

} // namespace pb
