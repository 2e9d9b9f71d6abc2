#include "bench.h"

#include <algorithm>
#include <cstring>

namespace pb {

namespace {

inline uint64_t
mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

inline uint64_t
pattern_key(uint64_t seed, uint64_t key, uint64_t gen)
{
    return mix64(seed * 0x9e3779b97f4a7c15ull ^ mix64(key + 1) ^
                 (gen + 1) * 0xd1b54a32d192ed03ull);
}

} // namespace

void
fill_pattern(uint8_t *dst, size_t len, uint64_t seed, uint64_t key,
             uint64_t gen)
{
    uint64_t k = pattern_key(seed, key, gen);
    size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        uint64_t w = mix64(k + i);
        std::memcpy(dst + i, &w, 8);
    }
    if (i < len) {
        uint64_t w = mix64(k + i);
        std::memcpy(dst + i, &w, len - i);
    }
}

bool
check_pattern(const uint8_t *src, size_t len, uint64_t seed, uint64_t key,
              uint64_t gen)
{
    uint64_t k = pattern_key(seed, key, gen);
    size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        uint64_t w = mix64(k + i);
        if (std::memcmp(src + i, &w, 8) != 0)
            return false;
    }
    if (i < len) {
        uint64_t w = mix64(k + i);
        return std::memcmp(src + i, &w, len - i) == 0;
    }
    return true;
}

double
pct_us(std::vector<Tick> v, double q)
{
    if (v.empty())
        return 0.0;
    size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
    if (rank >= v.size())
        rank = v.size() - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank),
                     v.end());
    return static_cast<double>(v[rank]) / 1e3;
}

std::vector<Metric>
PassResult::virtual_metrics(uint64_t events) const
{
    auto mibs = [](uint64_t bytes, Tick ns) {
        return ns == 0 ? 0.0
                       : static_cast<double>(bytes) / (1024.0 * 1024.0) /
                (static_cast<double>(ns) / 1e9);
    };
    auto mean_us = [](const std::vector<Tick> &v) {
        double s = 0;
        for (Tick t : v)
            s += static_cast<double>(t);
        return v.empty() ? 0.0 : s / static_cast<double>(v.size()) / 1e3;
    };
    return {
        {"write_mibs", mibs(write_bytes, write_virt_ns), "MiB/s"},
        {"read_mibs", mibs(read_bytes, read_virt_ns), "MiB/s"},
        {"write_mean_us", mean_us(write_lat), "us"},
        {"read_mean_us", mean_us(read_lat), "us"},
        {"write_p50_us", pct_us(write_lat, 0.5), "us"},
        {"write_p999_us", pct_us(write_lat, 0.999), "us"},
        {"read_p50_us", pct_us(read_lat, 0.5), "us"},
        {"read_p999_us", pct_us(read_lat, 0.999), "us"},
        {"waf",
         waf_user_bytes == 0 ? 0.0
                             : static_cast<double>(dev_write_bytes) /
                 static_cast<double>(waf_user_bytes),
         "ratio"},
        {"mttr_s", static_cast<double>(mttr_ns) / 1e9, "s"},
        {"events", static_cast<double>(events), "count"},
        {"write_samples", static_cast<double>(write_lat.size()), "count"},
        {"read_samples", static_cast<double>(read_lat.size()), "count"},
    };
}

// ---- Per-layer table -------------------------------------------------

const std::vector<LayerMetricDef> &
layer_metric_defs()
{
    static const std::vector<LayerMetricDef> defs = {
        {"sim.events_per_op", "count"},
        {"sim.host_ns_per_event", "ns"},
        {"sim.self_host_frac", "ratio"},
        {"bench.host_self_ns_per_op", "ns"},
        {"bench.write_p50_us", "us"},
        {"bench.write_p999_us", "us"},
        {"bench.read_p50_us", "us"},
        {"bench.read_p999_us", "us"},
        {"bench.write_samples", "count"},
        {"bench.read_samples", "count"},
        {"bench.mttr_s", "s"},
        {"bench.events", "count"},
        {"bench.failed_op_ratio", "ratio"},
        {"raizn.calls", "count"},
        {"raizn.host_self_ns_per_write", "ns"},
        {"raizn.host_self_ns_per_read", "ns"},
        {"raizn.dev_ops_per_op", "count"},
        {"raizn.pp_log_bytes_per_user_byte", "ratio"},
        {"raizn.parity_bytes_per_user_byte", "ratio"},
        {"mdraid.calls", "count"},
        {"mdraid.host_self_ns_per_write", "ns"},
        {"mdraid.rmw_reads_per_write", "count"},
        {"mdraid.partial_stripe_frac", "ratio"},
        {"mdraid.dev_ops_per_op", "count"},
        {"engine.calls", "count"},
        {"engine.host_self_ns_per_read", "ns"},
        {"engine.host_self_ns_per_write", "ns"},
        {"engine.reconstructed_sectors_per_read", "count"},
        {"engine.rebuild_read_bytes_per_rebuilt_byte", "ratio"},
        {"fault.io_retries", "count"},
        {"fault.io_timeouts", "count"},
        {"fault.fail_slow_detected", "count"},
        {"fault.health_suspects", "count"},
        {"zns.calls", "count"},
        {"zns.lat_p50_us", "us"},
        {"zns.lat_p999_us", "us"},
        {"zns.busy_frac_max", "ratio"},
        {"zns.host_ns_per_submit", "ns"},
        {"zns.write_bytes_per_user_byte", "ratio"},
        {"zns.zone_resets", "count"},
        {"conv.calls", "count"},
        {"conv.lat_p50_us", "us"},
        {"conv.lat_p999_us", "us"},
        {"conv.busy_frac_max", "ratio"},
        {"conv.host_ns_per_submit", "ns"},
        {"conv.gc_copies_per_host_write", "ratio"},
        {"env.calls", "count"},
        {"env.host_self_ns_per_call", "ns"},
        {"env.syncs_per_put", "count"},
        {"env.sync_p50_us", "us"},
        {"env.sync_p999_us", "us"},
        {"env.append_bytes_per_user_byte", "ratio"},
        {"kv.calls", "count"},
        {"kv.host_self_ns_per_put", "ns"},
        {"kv.host_self_ns_per_get", "ns"},
        {"kv.bloom_skip_ratio", "ratio"},
        {"kv.sst_reads_per_get", "count"},
        {"kv.compaction_bytes_per_user_byte", "ratio"},
        {"kv.memtable_flushes", "count"},
        {"kv.compactions", "count"},
        {"trace.overhead_frac", "ratio"},
        {"trace.spans", "count"},
        {"trace.self_sum_frac", "ratio"},
    };
    return defs;
}

const std::vector<StageDef> &
stage_defs()
{
    static const std::vector<StageDef> defs = {
        {"raizn", "raizn.write"},    {"raizn", "write.data"},
        {"raizn", "write.parity"},   {"raizn", "write.pp_log"},
        {"raizn", "raizn.read"},     {"raizn", "read.data"},
        {"mdraid", "md.write"},      {"mdraid", "md.read"},
        {"mdraid", "md.rmw_read"},   {"mdraid", "md.chunk_write"},
        {"mdraid", "md.parity"},     {"engine", "eng.write"},
        {"engine", "eng.chunk_write"}, {"engine", "eng.parity"},
        {"engine", "eng.q_parity"},  {"engine", "eng.chunk_read"},
        {"engine", "eng.reconstruct_read"},
    };
    return defs;
}

void
stage_metrics(const obs::TraceRecorder &tr, const char *array,
              std::map<std::string, double> *out)
{
    std::map<std::string, std::vector<Tick>> by_stage;
    for (const StageDef &d : stage_defs())
        if (std::strcmp(d.array, array) == 0)
            by_stage[d.stage];
    for (const obs::TraceSpan &s : tr.spans()) {
        auto it = by_stage.find(s.stage);
        if (it != by_stage.end())
            it->second.push_back(s.duration());
    }
    for (auto &[stage, v] : by_stage) {
        std::string base = std::string(array) + ".stage." + stage;
        (*out)[base + "_p50_us"] = pct_us(v, 0.5);
        (*out)[base + "_p999_us"] = pct_us(v, 0.999);
    }
}

void
fault_metrics(const ZonedArray &arr, uint64_t retries, uint64_t timeouts,
              uint64_t suspects_stat, std::map<std::string, double> *out)
{
    uint64_t slow = 0, suspects = 0;
    for (uint32_t d = 0; d < arr.num_devices(); ++d) {
        slow += arr.health().fail_slow_flagged(d) ? 1 : 0;
        const DeviceHealth &h = arr.health().device(d);
        suspects += (h.errors + h.timeouts) > 0 ? 1 : 0;
    }
    (*out)["fault.io_retries"] = static_cast<double>(retries);
    (*out)["fault.io_timeouts"] = static_cast<double>(timeouts);
    (*out)["fault.fail_slow_detected"] = static_cast<double>(slow);
    (*out)["fault.health_suspects"] =
        static_cast<double>(std::max(suspects, suspects_stat));
}

void
device_metrics(const char *prefix, const std::vector<DeviceTrace> &dt,
               const std::vector<uint64_t> &busy_ns, uint32_t units,
               Tick window_virt_ns, const SelfTimes &st, Layer l,
               std::map<std::string, double> *out)
{
    std::vector<Tick> lat;
    for (const DeviceTrace &d : dt)
        lat.insert(lat.end(), d.lat.begin(), d.lat.end());
    uint64_t submits = st.calls[int(l)];
    double busy = 0;
    for (uint64_t b : busy_ns)
        if (window_virt_ns > 0)
            busy = std::max(busy, static_cast<double>(b) /
                                (static_cast<double>(units) *
                                 static_cast<double>(window_virt_ns)));
    std::string p = prefix;
    (*out)[p + ".calls"] = static_cast<double>(st.calls[int(l)]);
    (*out)[p + ".lat_p50_us"] = pct_us(lat, 0.5);
    (*out)[p + ".lat_p999_us"] = pct_us(lat, 0.999);
    (*out)[p + ".busy_frac_max"] = busy;
    (*out)[p + ".host_ns_per_submit"] = submits == 0
        ? 0.0
        : static_cast<double>(st.layer(l)) / static_cast<double>(submits);
}

void
sim_metrics(const SelfTimes &st, uint64_t events, uint64_t ops,
            size_t spans, std::map<std::string, double> *out)
{
    double sim = static_cast<double>(st.layer(Layer::kSim));
    (*out)["sim.events_per_op"] =
        ops == 0 ? 0.0 : static_cast<double>(events) / ops;
    (*out)["sim.host_ns_per_event"] = events == 0 ? 0.0 : sim / events;
    (*out)["sim.self_host_frac"] =
        st.window_ns == 0 ? 0.0 : sim / static_cast<double>(st.window_ns);
    (*out)["bench.host_self_ns_per_op"] = ops == 0
        ? 0.0
        : static_cast<double>(st.layer(Layer::kBench)) / ops;
    (*out)["trace.spans"] = static_cast<double>(spans);
    uint64_t all = 0;
    for (int l = 0; l < static_cast<int>(Layer::kCount); ++l)
        all += st.layer(static_cast<Layer>(l));
    (*out)["trace.self_sum_frac"] = st.window_ns == 0
        ? 0.0
        : static_cast<double>(all) / static_cast<double>(st.window_ns);
}

uint64_t
dev_written_bytes(const std::vector<BlockDevice *> &devs)
{
    uint64_t s = 0;
    for (const BlockDevice *d : devs)
        s += d->stats().sectors_written;
    return s * kSectorSize;
}

std::vector<DeviceStats>
snap(const std::vector<BlockDevice *> &devs)
{
    std::vector<DeviceStats> s;
    for (const BlockDevice *d : devs)
        s.push_back(d->stats());
    return s;
}

// ---- ArrayIo ---------------------------------------------------------

struct ArrayIo::Job {
    uint64_t next = 0, hi = 0;
};

namespace {

uint64_t
count_blocks(const std::vector<Extent> &ext, uint32_t bs)
{
    uint64_t blocks = 0;
    for (const Extent &e : ext)
        blocks += (e.hi - e.lo) / bs;
    return blocks;
}

/// A uniformly chosen bs-aligned block of the extents.
uint64_t
pick_block(const std::vector<Extent> &ext, uint64_t blocks, uint32_t bs,
           Rng &rng)
{
    uint64_t b = rng.next_below(blocks);
    for (const Extent &e : ext) {
        uint64_t nb = (e.hi - e.lo) / bs;
        if (b < nb)
            return e.lo + b * bs;
        b -= nb;
    }
    return ext.back().lo;
}

} // namespace

void
ArrayIo::wait_jobs()
{
    if (!loop_->run_until_pred([this] { return running_ == 0; })) {
        // The loop drained with requests outstanding: they were lost.
        r_->errors += running_;
        running_ = 0;
    }
}

void
ArrayIo::seq_write(const std::vector<Extent> &jobs, uint64_t gen,
                   Rng &rng, double p_small, uint32_t big)
{
    wrng_ = &rng;
    p_small_ = p_small;
    big_ = big;
    wgen_ = gen;
    std::vector<Job> js;
    for (const Extent &e : jobs)
        js.push_back({e.lo, e.hi});
    Tick t0 = loop_->now();
    {
        Scope s(Layer::kBench, "bench.issue");
        for (Job &j : js) {
            if (j.next < j.hi) {
                running_++;
                issue_write(j);
            }
        }
    }
    wait_jobs();
    if (record)
        r_->write_virt_ns += loop_->now() - t0;
}

void
ArrayIo::issue_write(Job &j)
{
    uint32_t n = wrng_->next_bool(p_small_) ? 1 : big_;
    n = static_cast<uint32_t>(std::min<uint64_t>(n, j.hi - j.next));
    uint64_t lba = j.next;
    j.next += n;
    std::vector<uint8_t> data(static_cast<size_t>(n) * kSectorSize);
    for (uint32_t s = 0; s < n; ++s)
        fill_pattern(data.data() + static_cast<size_t>(s) * kSectorSize,
                     kSectorSize, seed_, lba + s, wgen_);
    uint64_t req = g_tr.new_req(OpClass::kWrite);
    Tick t0 = loop_->now();
    IoCallback cb = [this, &j, n, t0, req](IoResult res) {
        Scope s(Layer::kBench, "bench.cb", req);
        r_->attempted++;
        ops_++;
        if (!res.status.is_ok())
            r_->errors++;
        if (record) {
            r_->write_lat.push_back(loop_->now() - t0);
            r_->write_bytes += static_cast<uint64_t>(n) * kSectorSize;
        }
        if (j.next < j.hi)
            issue_write(j);
        else
            running_--;
    };
    Scope s(layer_, "array.write", req);
    arr_->write(lba, std::move(data), WriteFlags{}, std::move(cb));
}

void
ArrayIo::rand_read(const std::vector<Extent> &ext, uint64_t n, uint32_t qd,
                   uint32_t bs, uint64_t gen, Rng &rng)
{
    uint64_t blocks = count_blocks(ext, bs);
    uint64_t left = n;
    next_read_ = [&ext, &rng, &left, blocks, bs](uint64_t *lba) {
        if (left == 0)
            return false;
        left--;
        *lba = pick_block(ext, blocks, bs, rng);
        return true;
    };
    run_reads(qd, bs, gen);
}

void
ArrayIo::seq_read(const std::vector<Extent> &ext, uint32_t bs, uint32_t qd,
                  uint64_t gen)
{
    size_t idx = 0;
    uint64_t cur = ext.empty() ? 0 : ext[0].lo;
    next_read_ = [&ext, &idx, &cur, bs](uint64_t *lba) {
        while (idx < ext.size() && cur + bs > ext[idx].hi) {
            if (++idx < ext.size())
                cur = ext[idx].lo;
        }
        if (idx >= ext.size())
            return false;
        *lba = cur;
        cur += bs;
        return true;
    };
    run_reads(qd, bs, gen);
}

void
ArrayIo::run_reads(uint32_t qd, uint32_t bs, uint64_t gen)
{
    read_bs_ = bs;
    read_gen_ = gen;
    Tick t0 = loop_->now();
    {
        Scope s(Layer::kBench, "bench.issue");
        for (uint32_t i = 0; i < qd; ++i) {
            running_++;
            issue_read();
        }
    }
    wait_jobs();
    if (record)
        r_->read_virt_ns += loop_->now() - t0;
}

void
ArrayIo::issue_read()
{
    uint64_t lba;
    if (!next_read_(&lba)) {
        running_--;
        return;
    }
    uint32_t n = read_bs_;
    uint64_t req = g_tr.new_req(OpClass::kRead);
    Tick t0 = loop_->now();
    IoCallback cb = [this, lba, n, t0, req](IoResult res) {
        Scope s(Layer::kBench, "bench.cb", req);
        done_read(lba, n, t0, std::move(res));
    };
    Scope s(layer_, "array.read", req);
    arr_->read(lba, n, std::move(cb));
}

void
ArrayIo::done_read(uint64_t lba, uint32_t n, Tick t0, IoResult res)
{
    r_->attempted++;
    ops_++;
    if (!res.status.is_ok()) {
        r_->errors++;
    } else {
        bool ok = res.data.size() == static_cast<size_t>(n) * kSectorSize;
        for (uint32_t s = 0; ok && s < n; ++s)
            ok = check_pattern(res.data.data() +
                                   static_cast<size_t>(s) * kSectorSize,
                               kSectorSize, seed_, lba + s, read_gen_);
        if (!ok)
            r_->wrong++;
    }
    if (record) {
        r_->read_lat.push_back(loop_->now() - t0);
        r_->read_bytes += static_cast<uint64_t>(n) * kSectorSize;
    }
    issue_read();
}

void
ArrayIo::reset_zones(uint32_t first, uint32_t count)
{
    Scope s(Layer::kBench, "bench.issue");
    for (uint32_t z = first; z < first + count; ++z) {
        running_++;
        uint64_t req = g_tr.new_req(OpClass::kOther);
        IoCallback cb = [this, req](IoResult res) {
            Scope s(Layer::kBench, "bench.cb", req);
            r_->attempted++;
            if (!res.status.is_ok())
                r_->errors++;
            running_--;
        };
        Scope call(layer_, "array.reset_zone", req);
        arr_->reset_zone(z, std::move(cb));
    }
    wait_jobs();
}

Tick
rebuild_member(EventLoop *loop, ZonedArray *arr, uint32_t dev,
               PassResult *r)
{
    Tick t0 = loop->now(), t1 = 0;
    bool done = false;
    Status st;
    arr->rebuild_device(dev, nullptr, [&](Status s) {
        st = s;
        done = true;
        t1 = loop->now();
    });
    loop->run_until_pred([&] { return done; });
    r->attempted++;
    if (!done || !st.is_ok())
        r->errors++;
    return t1 - t0;
}

} // namespace pb
