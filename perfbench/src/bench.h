/**
 * @file
 * Shared pieces of the three workloads: the seeded byte oracle, exact
 * percentiles, the per-pass result record, the closed-loop job engine
 * that drives a ZonedArray through its public API, and the fixed
 * per-layer metric table.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "array/zoned_array.h"
#include "common/rng.h"
#include "obs/trace.h"
#include "tracer.h"

namespace pb {

// ---- Byte oracle -----------------------------------------------------

/// Fills `len` bytes with the pattern of (seed, key, gen).
void fill_pattern(uint8_t *dst, size_t len, uint64_t seed, uint64_t key,
                  uint64_t gen);
/// True when `src` holds exactly the pattern of (seed, key, gen).
bool check_pattern(const uint8_t *src, size_t len, uint64_t seed,
                   uint64_t key, uint64_t gen);

// ---- Results ---------------------------------------------------------

/// Exact percentile (nearest rank) of `v` in ns, returned in us.
double pct_us(std::vector<Tick> v, double q);

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/**
 * One pass of a workload. The virtual fields cover the fixed, seeded
 * quantum (and the rebuild), so they repeat exactly for a seed; the
 * host fields cover however much work fits in --seconds.
 */
struct PassResult {
    // Virtual clock.
    std::vector<Tick> write_lat, read_lat; ///< call -> callback, ns
    uint64_t write_bytes = 0, read_bytes = 0;
    Tick write_virt_ns = 0, read_virt_ns = 0;
    uint64_t dev_write_bytes = 0; ///< all members, WAF window
    uint64_t waf_user_bytes = 0;
    Tick mttr_ns = 0;
    // Host clock.
    std::vector<double> setup_s;
    uint64_t timed_host_ns = 0, timed_ops = 0; ///< CPU time, user ops
    double host_ops_per_s = 0; ///< a quantile of the timed steps' rates
    // Oracle.
    uint64_t attempted = 0, errors = 0, wrong = 0;
    bool scrub_ok = true;
    // Traced pass only.
    std::map<std::string, double> layer;

    /// The virtual-clock metrics (plus the window's event count), for
    /// the traced == untraced check.
    std::vector<Metric> virtual_metrics(uint64_t events) const;
};

// ---- Per-layer metric table ------------------------------------------

struct LayerMetricDef {
    const char *name;
    const char *unit;
};
/// Every per-layer metric, in output order.
const std::vector<LayerMetricDef> &layer_metric_defs();
/// TraceRecorder stages reported as <array>.stage.<stage>_p50/_p999_us.
struct StageDef {
    const char *array; ///< metric prefix: raizn, mdraid, engine
    const char *stage; ///< TraceRecorder stage name
};
const std::vector<StageDef> &stage_defs();
/// Fills the stage percentiles of `array` from the recorder's spans.
void stage_metrics(const obs::TraceRecorder &tr, const char *array,
                   std::map<std::string, double> *out);
/// fault.* counters from the array's health monitor and stats.
void fault_metrics(const ZonedArray &arr, uint64_t retries,
                   uint64_t timeouts, uint64_t suspects_stat,
                   std::map<std::string, double> *out);
/// <prefix>.lat_p50_us / lat_p999_us / busy_frac_max /
/// host_ns_per_submit / calls from the member decorators.
void device_metrics(const char *prefix, const std::vector<DeviceTrace> &dt,
                    const std::vector<uint64_t> &busy_ns, uint32_t units,
                    Tick window_virt_ns, const SelfTimes &st, Layer l,
                    std::map<std::string, double> *out);
/// sim.*, bench.host_self_ns_per_op, trace.spans and
/// trace.self_sum_frac from the self-time table.
void sim_metrics(const SelfTimes &st, uint64_t events, uint64_t ops,
                 size_t spans, std::map<std::string, double> *out);

// ---- Closed-loop jobs over a ZonedArray ------------------------------

struct Extent {
    uint64_t lo, hi; ///< [lo, hi) in sectors
};

/**
 * Drives one ZonedArray with closed-loop jobs: each job (or queue
 * slot) issues its next request only from the previous one's
 * completion. Writes carry the oracle pattern of (seed, lba, gen);
 * reads are checked sector by sector. Latency runs from the call to
 * the callback on the virtual clock.
 */
class ArrayIo
{
  public:
    ArrayIo(EventLoop *loop, ZonedArray *arr, Layer layer, uint64_t seed,
            PassResult *r)
        : loop_(loop), arr_(arr), layer_(layer), seed_(seed), r_(r)
    {
    }

    /// Latencies/bytes go into the virtual metrics only while set.
    bool record = false;

    /// One sequential writer per extent; each block is 1 sector with
    /// probability `p_small`, else `big` sectors (clipped to the end).
    void seq_write(const std::vector<Extent> &jobs, uint64_t gen,
                   Rng &rng, double p_small, uint32_t big);
    /// `n` reads of `bs` sectors at queue depth `qd`, uniformly over
    /// the extents (bs-aligned offsets).
    void rand_read(const std::vector<Extent> &ext, uint64_t n,
                   uint32_t qd, uint32_t bs, uint64_t gen, Rng &rng);
    /// Reads the extents front to back in `bs` blocks at depth `qd`.
    void seq_read(const std::vector<Extent> &ext, uint32_t bs, uint32_t qd,
                  uint64_t gen);
    void reset_zones(uint32_t first, uint32_t count);
    uint64_t ops() const { return ops_; }

  private:
    /// One sequential writer's cursor.
    struct Job;
    void issue_write(Job &j);
    void issue_read();
    /// Runs `qd` closed-loop read slots until next_read_ runs dry.
    void run_reads(uint32_t qd, uint32_t bs, uint64_t gen);
    void done_read(uint64_t lba, uint32_t n, Tick t0, IoResult res);
    void wait_jobs();

    EventLoop *loop_;
    ZonedArray *arr_;
    Layer layer_;
    uint64_t seed_;
    PassResult *r_;
    uint64_t ops_ = 0;
    uint32_t running_ = 0;
    // Shape of the current seq_write call.
    Rng *wrng_ = nullptr;
    double p_small_ = 0;
    uint32_t big_ = 1;
    uint64_t wgen_ = 0;
    // Source of the next read LBA in the current read call; false
    // when the stream is done.
    std::function<bool(uint64_t *)> next_read_;
    uint32_t read_bs_ = 1;
    uint64_t read_gen_ = 0;
};

/**
 * Rebuilds member `dev` of `arr`, which the caller has failed and
 * swapped for a blank device, with nothing else running (the loop
 * must be idle: a member swapped with commands in flight never
 * completes them, and the engine's per-(member, zone) ordering then
 * stalls the rebuild). Returns the virtual duration; a failed or
 * stalled rebuild counts as a failed op.
 */
Tick rebuild_member(EventLoop *loop, ZonedArray *arr, uint32_t dev,
                    PassResult *r);

/// Σ sectors_written over `devs`, in bytes.
uint64_t dev_written_bytes(const std::vector<BlockDevice *> &devs);
/// DeviceStats of each of `devs`.
std::vector<DeviceStats> snap(const std::vector<BlockDevice *> &devs);

/**
 * An array's member devices. In a traced pass each one sits behind a
 * TracingDevice; `members` is what the array is built on, `raw` the
 * devices themselves.
 */
template <class Dev>
struct Members {
    std::vector<std::unique_ptr<Dev>> devs;
    std::vector<std::unique_ptr<TracingDevice>> wrapped;
    std::vector<BlockDevice *> raw, members;
    std::vector<DeviceTrace> dt;

    template <class Cfg>
    void
    build(EventLoop *loop, uint32_t n, const Cfg &cfg, bool traced,
          Layer dev_layer, Layer array_layer)
    {
        dt.resize(n);
        for (uint32_t i = 0; i < n; ++i) {
            Cfg c = cfg;
            c.name += std::to_string(i);
            devs.push_back(std::make_unique<Dev>(loop, c));
            raw.push_back(devs.back().get());
            if (traced) {
                wrapped.push_back(std::make_unique<TracingDevice>(
                    devs.back().get(), dev_layer, array_layer, &dt[i]));
                members.push_back(wrapped.back().get());
            } else {
                members.push_back(devs.back().get());
            }
        }
    }
};

// ---- Workloads -------------------------------------------------------

struct RunOpts {
    uint64_t seed = 1;
    double seconds = 10;
    bool traced = false;
    bool extend = true;    ///< keep working until --seconds
    bool repeat_setup = true; ///< several set-ups, median reported
    std::string spans_out; ///< traced pass: dump spans here
};

class Workload
{
  public:
    virtual ~Workload() = default;
    /// Builds, formats and fills/loads (timed as setup_s).
    virtual void setup() = 0;
    /// The fixed, seeded timed work (virtual metrics come from here).
    virtual void quantum() = 0;
    /// One more unit of timed work while --seconds have not elapsed.
    virtual void extend_step() = 0;
    /// Replaces one member and rebuilds it (mttr_s); untimed.
    virtual void rebuild() = 0;
    /// Whether rebuild() runs before quantum() instead of after it.
    virtual bool rebuild_first() const { return false; }
    /// Which quantile of the timed steps' rates host_ops_per_s is: the
    /// median, or a higher one where the steps are alike enough that
    /// contention on the host, not the work, makes most of the
    /// difference between a fast step and a slow one.
    virtual double step_rate_quantile() const { return 0.5; }
    /// Scrub and final oracle checks; untimed.
    virtual void finish() = 0;
    /// Traced pass: adds the layer metrics of this workload's array,
    /// devices and upper layers to r.layer after finish().
    virtual void layer_metrics(const SelfTimes &st) = 0;
    /// User ops completed so far (writes, reads, puts, gets).
    virtual uint64_t ops() const = 0;

    PassResult r;
};

std::unique_ptr<Workload> make_raizn_fio(const RunOpts &o);
std::unique_ptr<Workload> make_kv_mdraid(const RunOpts &o);
std::unique_ptr<Workload> make_raid6_degraded(const RunOpts &o);

} // namespace pb
