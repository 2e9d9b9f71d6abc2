/**
 * @file
 * kv_mdraid: the LSM store with a synced WAL (as in fig14) over
 * BlockEnv over mdraid RAID-5 on 5 conventional FTL SSDs. One client
 * issues 50/50 puts of 4000 B values (fig13) and gets, each get
 * checked against a shadow map of every key's last put. The key space
 * (36864 keys, ~141 MiB) is many times the 4 MiB memtable and larger
 * than md's 128 MiB stripe cache, and the timed phase spans several
 * memtable flushes and compactions. The work lands in kv (bloom, CRC,
 * SSTable build, compaction), env, mdraid partial-stripe
 * read-modify-write and FTL GC; RAIZN, the engine and GF(256) never
 * run.
 */
#include "bench.h"

#include <cstdio>

#include "common/logging.h"
#include "env/block_env.h"
#include "kv/db.h"
#include "zns/conv_device.h"

namespace pb {

namespace {

constexpr uint32_t kDevs = 5;
constexpr uint64_t kDevSectors = 128 * kMiB / kSectorSize;
constexpr uint64_t kKeys = 36864;
constexpr uint32_t kValueBytes = 4000;
constexpr uint64_t kQuantumOps = 24000;
/// About one L0 compaction cycle (4 memtable flushes of ~1000 puts).
constexpr uint64_t kStepOps = 8000;
constexpr uint64_t kFinalGets = 2000;

std::string
make_key(uint64_t k)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llu", (unsigned long long)k);
    return buf;
}

class KvMdraid : public Workload
{
  public:
    explicit KvMdraid(const RunOpts &o)
        : o_(o), rng_(o.seed), frng_(o.seed ^ 0x6b76ull),
          shadow_(kKeys, 0)
    {
    }

    void
    setup() override
    {
        loop_ = std::make_unique<EventLoop>();
        g_tr.reset(loop_.get(), o_.traced);
        ConvDeviceConfig c;
        c.nsectors = kDevSectors;
        c.data_mode = DataMode::kStore;
        c.timing = TimingParams::conventional();
        c.op_ratio = 0.07;
        c.pages_per_block = 512;
        c.name = "conv";
        m_.build(loop_.get(), kDevs, c, o_.traced, Layer::kConv,
                 Layer::kMdraid);
        MdVolumeConfig mc;
        mc.chunk_sectors = 16;
        if (o_.traced) {
            md_ = std::make_unique<TracedMdVolume>(loop_.get(), m_.members,
                                                   mc);
            trace_ = std::make_unique<obs::TraceRecorder>(1 << 20);
            md_->attach_observability(nullptr, trace_.get());
        } else {
            md_ = std::make_unique<MdVolume>(loop_.get(), m_.members, mc);
        }
        block_env_ = std::make_unique<BlockEnv>(loop_.get(), md_.get());
        Env *env = block_env_.get();
        if (o_.traced) {
            tenv_ = std::make_unique<TracingEnv>(env, &et_);
            env = tenv_.get();
        }
        DbOptions opt;
        opt.memtable_bytes = 4 * kMiB;
        opt.target_file_bytes = 4 * kMiB;
        opt.l1_bytes = 16 * kMiB;
        opt.sync_wal = true;
        auto d = Db::open(env, opt);
        if (!d.is_ok())
            RAIZN_PANIC("db open: %s", d.status().to_string().c_str());
        db_ = std::move(d).value();

        // Load every key once, in key order (db_bench fillseq).
        for (uint64_t k = 0; k < kKeys; ++k)
            put(k);
    }

    void
    quantum() override
    {
        uint64_t dev0 = dev_written_bytes(m_.raw);
        s0_ = snap(m_.raw);
        md0_ = md_->stats();
        db0_ = db_->stats();
        Tick v0 = loop_->now();
        record_ = true;
        g_tr.window_begin();
        for (uint64_t i = 0; i < kQuantumOps; ++i)
            op();
        g_tr.window_end();
        record_ = false;
        window_virt_ = loop_->now() - v0;
        r.dev_write_bytes = dev_written_bytes(m_.raw) - dev0;
        r.waf_user_bytes = r.write_bytes;
        s1_ = snap(m_.raw);
        for (uint32_t i = 0; i < kDevs; ++i)
            busy_.push_back(s1_[i].busy_ns - s0_[i].busy_ns);
        md1_ = md_->stats();
        db1_ = db_->stats();
        fault_metrics(*md_, md1_.io_retries, md1_.io_timeouts, 0, &r.layer);
    }

    void
    extend_step() override
    {
        for (uint64_t i = 0; i < kStepOps; ++i)
            op();
    }

    /// The 90th percentile step. A step is about one flush and L0
    /// compaction cycle, much like the next, while neighbours on a
    /// shared host slowed whole spells of steps by up to half, so the
    /// faster steps follow the program and the median follows the
    /// neighbours. The 2-3 % of steps that run about three times as
    /// fast as the rest stay above the 90th percentile.
    double step_rate_quantile() const override { return 0.9; }

    void
    rebuild() override
    {
        // Resync one replaced member, the client idle. (Puts that race
        // the resync leave stale chunks on the new member and later
        // gets return old values, a MdVolume defect this benchmark
        // does not exercise.)
        uint32_t d = static_cast<uint32_t>(frng_.next_below(kDevs));
        loop_->run();
        md_->mark_device_failed(d);
        m_.devs[d]->replace();
        r.mttr_ns = rebuild_member(loop_.get(), md_.get(), d, &r);
    }

    void
    finish() override
    {
        for (uint64_t i = 0; i < kFinalGets; ++i)
            get(frng_.next_below(kKeys));
    }

    void
    layer_metrics(const SelfTimes &st) override
    {
        auto &L = r.layer;
        double puts = static_cast<double>(r.write_lat.size());
        double gets = static_cast<double>(r.read_lat.size());
        double user = static_cast<double>(r.write_bytes);
        L["kv.calls"] = static_cast<double>(st.calls[int(Layer::kKv)]);
        L["kv.host_self_ns_per_put"] =
            st.of(Layer::kKv, OpClass::kWrite) / puts;
        L["kv.host_self_ns_per_get"] =
            st.of(Layer::kKv, OpClass::kRead) / gets;
        L["kv.bloom_skip_ratio"] =
            static_cast<double>(db1_.bloom_skips - db0_.bloom_skips) / gets;
        L["kv.sst_reads_per_get"] = et_.reads_in_get / gets;
        L["kv.compaction_bytes_per_user_byte"] =
            static_cast<double>(db1_.compaction_bytes_written -
                                db0_.compaction_bytes_written) /
            user;
        L["kv.memtable_flushes"] =
            static_cast<double>(db1_.memtable_flushes - db0_.memtable_flushes);
        L["kv.compactions"] =
            static_cast<double>(db1_.compactions - db0_.compactions);

        L["env.calls"] = static_cast<double>(st.calls[int(Layer::kEnv)]);
        L["env.host_self_ns_per_call"] =
            static_cast<double>(st.layer(Layer::kEnv)) /
            st.calls[int(Layer::kEnv)];
        L["env.syncs_per_put"] = et_.syncs / puts;
        L["env.sync_p50_us"] = pct_us(et_.sync_lat, 0.5);
        L["env.sync_p999_us"] = pct_us(et_.sync_lat, 0.999);
        L["env.append_bytes_per_user_byte"] = et_.append_bytes / user;

        double md_writes =
            static_cast<double>(md1_.logical_writes - md0_.logical_writes);
        double full = static_cast<double>(md1_.full_stripe_writes -
                                          md0_.full_stripe_writes);
        double partial = static_cast<double>(md1_.partial_stripe_writes -
                                             md0_.partial_stripe_writes);
        L["mdraid.calls"] =
            static_cast<double>(st.calls[int(Layer::kMdraid)]);
        L["mdraid.host_self_ns_per_write"] =
            st.of(Layer::kMdraid, OpClass::kWrite) / md_writes;
        L["mdraid.rmw_reads_per_write"] =
            (md1_.rmw_reads - md0_.rmw_reads) / md_writes;
        L["mdraid.partial_stripe_frac"] = partial / (partial + full);
        L["mdraid.dev_ops_per_op"] =
            st.calls[int(Layer::kConv)] / (puts + gets);

        device_metrics("conv", m_.dt, busy_,
                       TimingParams::conventional().units, window_virt_, st,
                       Layer::kConv, &L);
        uint64_t copies = 0, written = 0;
        for (uint32_t i = 0; i < kDevs; ++i) {
            copies += s1_[i].gc_page_copies - s0_[i].gc_page_copies;
            written += s1_[i].sectors_written - s0_[i].sectors_written;
        }
        L["conv.gc_copies_per_host_write"] =
            static_cast<double>(copies) / written;
        stage_metrics(*trace_, "mdraid", &L);
    }

    uint64_t ops() const override { return ops_; }

  private:
    void
    op()
    {
        Scope span(Layer::kBench, "bench.op");
        if (rng_.next_bool(0.5))
            put(rng_.next_below(kKeys));
        else
            get(rng_.next_below(kKeys));
        ops_++;
    }

    void
    put(uint64_t k)
    {
        uint32_t ver = ++shadow_[k];
        std::string key = make_key(k);
        std::string value(kValueBytes, '\0');
        fill_pattern(reinterpret_cast<uint8_t *>(value.data()), kValueBytes,
                     o_.seed, k, ver);
        uint64_t req = g_tr.new_req(OpClass::kWrite);
        Tick t0 = loop_->now();
        Status s;
        {
            Scope span(Layer::kKv, "kv.put", req);
            s = db_->put(key, value);
        }
        r.attempted++;
        if (!s.is_ok())
            r.errors++;
        if (record_) {
            r.write_lat.push_back(loop_->now() - t0);
            r.write_virt_ns += loop_->now() - t0;
            r.write_bytes += key.size() + kValueBytes;
        }
    }

    void
    get(uint64_t k)
    {
        std::string key = make_key(k);
        uint64_t req = g_tr.new_req(OpClass::kRead);
        Tick t0 = loop_->now();
        Result<std::string> v = std::string();
        {
            Scope span(Layer::kKv, "kv.get", req);
            if (tenv_)
                tenv_->in_get = true;
            v = db_->get(key);
            if (tenv_)
                tenv_->in_get = false;
        }
        r.attempted++;
        if (!v.is_ok()) {
            r.errors++;
        } else if (v.value().size() != kValueBytes ||
                   !check_pattern(
                       reinterpret_cast<const uint8_t *>(v.value().data()),
                       kValueBytes, o_.seed, k, shadow_[k])) {
            r.wrong++;
        }
        if (record_) {
            r.read_lat.push_back(loop_->now() - t0);
            r.read_virt_ns += loop_->now() - t0;
            r.read_bytes += key.size() + kValueBytes;
        }
    }

    RunOpts o_;
    Rng rng_, frng_; ///< client ops; resync member and final checks
    std::vector<uint32_t> shadow_; ///< last put version of every key
    std::unique_ptr<EventLoop> loop_;
    Members<ConvDevice> m_;
    std::unique_ptr<obs::TraceRecorder> trace_;
    std::unique_ptr<MdVolume> md_;
    std::unique_ptr<BlockEnv> block_env_;
    std::unique_ptr<TracingEnv> tenv_;
    EnvTrace et_;
    std::unique_ptr<Db> db_;
    bool record_ = false;
    uint64_t ops_ = 0;
    Tick window_virt_ = 0;
    std::vector<DeviceStats> s0_, s1_;
    MdVolumeStats md0_, md1_;
    DbStats db0_, db1_;
    std::vector<uint64_t> busy_;
};

} // namespace

std::unique_ptr<Workload>
make_kv_mdraid(const RunOpts &o)
{
    return std::make_unique<KvMdraid>(o);
}

} // namespace pb
