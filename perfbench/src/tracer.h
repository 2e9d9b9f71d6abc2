/**
 * @file
 * Outside-in tracing for the benchmark: spans recorded at the public
 * boundaries of each layer (array calls, member-device submits and
 * their completion callbacks, Env calls, Db calls, event-loop
 * dispatches), never inside the program under test.
 *
 * Spans nest on the host clock (the simulator is single-threaded), so
 * a span's self time is its duration minus the durations of the spans
 * opened while it was on top of the stack. Sum of all self times plus
 * the window time no span covers equals the window's host time; the
 * uncovered remainder and the self time of event-dispatch spans are
 * the `sim` layer.
 *
 * Tracing is off unless a traced pass opens a window: every hook then
 * costs one branch on `active`.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "env/env.h"
#include "mdraid/md_volume.h"
#include "sim/event_loop.h"
#include "zns/block_device.h"

namespace pb {

using namespace raizn;

/// Host wall clock (steady_clock), ns: span timestamps.
uint64_t host_ns();
/// CPU time of this process, ns: the simulator's own cost, which time
/// the process spends descheduled does not inflate. The host-clock
/// end-to-end metrics and the trace overhead use it.
uint64_t cpu_ns();

/// Layers, named after the src/ modules they cover. kBench is the
/// benchmark's own code (op generation and the byte oracle).
enum class Layer : uint8_t {
    kSim,
    kBench,
    kRaizn,
    kMdraid,
    kEngine,
    kZns,
    kConv,
    kEnv,
    kKv,
    kCount,
};
const char *layer_name(Layer l);

/// Class of the user request a span serves (0 = background).
enum class OpClass : uint8_t { kOther, kWrite, kRead, kCount };

struct Span {
    const char *name;
    uint32_t parent; ///< index into spans, kNoSpan at top level
    Layer layer;
    uint64_t req;
    uint64_t h0, h1; ///< host ns
    Tick v0, v1;     ///< virtual ns
};

constexpr uint32_t kNoSpan = UINT32_MAX;

/// Self time per (layer, op class) from one traced window.
struct SelfTimes {
    uint64_t ns[static_cast<int>(Layer::kCount)]
               [static_cast<int>(OpClass::kCount)] = {};
    uint64_t calls[static_cast<int>(Layer::kCount)] = {};
    uint64_t window_ns = 0;

    uint64_t layer(Layer l) const;
    uint64_t of(Layer l, OpClass c) const
    {
        return ns[static_cast<int>(l)][static_cast<int>(c)];
    }
};

class Tracer
{
  public:
    bool active = false;   ///< recording spans right now
    uint64_t cur_req = 0;  ///< request on whose behalf code runs

    /// Arms tracing for a pass (spans recorded inside windows only).
    void reset(EventLoop *loop, bool traced);
    EventLoop *loop() const { return loop_; }

    /// Windows delimit the host time the per-layer numbers cover.
    void window_begin();
    void window_end();
    uint64_t window_host_ns() const { return window_ns_; }
    uint64_t window_cpu_ns() const { return window_cpu_ns_; }
    uint64_t window_events() const { return window_events_; }

    /// New request id of class `c` (traced passes only; 0 otherwise).
    uint64_t new_req(OpClass c);

    uint32_t begin(Layer l, const char *name);
    void end(uint32_t idx);

    /// Aggregates the recorded spans.
    SelfTimes self_times() const;
    size_t num_spans() const { return spans_.size(); }
    bool write_spans(const std::string &path) const;

  private:
    void on_event_begin();
    void on_event_end();

    EventLoop *loop_ = nullptr;
    bool traced_ = false;
    std::vector<Span> spans_;
    std::vector<uint32_t> stack_;
    std::vector<OpClass> req_class_{OpClass::kOther};
    uint64_t window_ns_ = 0, window_h0_ = 0;
    uint64_t window_cpu_ns_ = 0, window_c0_ = 0;
    uint64_t window_events_ = 0, window_e0_ = 0;
};

extern Tracer g_tr;

/// RAII span; a no-op while tracing is inactive. `req` != 0 switches
/// the current request for the span's extent.
class Scope
{
  public:
    Scope(Layer l, const char *name, uint64_t req = 0)
    {
        if (!g_tr.active)
            return;
        saved_req_ = g_tr.cur_req;
        if (req != 0)
            g_tr.cur_req = req;
        idx_ = g_tr.begin(l, name);
    }
    ~Scope()
    {
        if (idx_ == kNoSpan)
            return;
        g_tr.end(idx_);
        g_tr.cur_req = saved_req_;
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    uint32_t idx_ = kNoSpan;
    uint64_t saved_req_ = 0;
};

/// Virtual latencies seen by TracingDevice (its span count is the
/// submit count).
struct DeviceTrace {
    std::vector<Tick> lat; ///< virtual submit -> completion, ns
};

/**
 * BlockDevice decorator between an array and one member, shaped like
 * FaultInjectingDevice: everything passes through; submit() is a
 * `dev_layer` span and the completion callback handed back to the
 * array runs inside an `array_layer` span.
 */
class TracingDevice : public BlockDevice
{
  public:
    TracingDevice(BlockDevice *inner, Layer dev_layer, Layer array_layer,
                  DeviceTrace *out)
        : inner_(inner), dev_layer_(dev_layer), array_layer_(array_layer),
          out_(out)
    {
    }

    const DeviceGeometry &geometry() const override
    {
        return inner_->geometry();
    }
    const DeviceStats &stats() const override { return inner_->stats(); }
    DataMode data_mode() const override { return inner_->data_mode(); }
    void submit(IoRequest req, IoCallback cb) override;
    Result<ZoneInfo> zone_info(uint32_t zone) const override
    {
        return inner_->zone_info(zone);
    }
    bool failed() const override { return inner_->failed(); }
    void fail() override { inner_->fail(); }
    void set_ledger(obs::IoLedger *ledger, uint32_t dev) override
    {
        inner_->set_ledger(ledger, dev);
    }

  private:
    BlockDevice *inner_;
    Layer dev_layer_, array_layer_;
    DeviceTrace *out_;
};

/// Env-layer counts and sync latencies seen by TracingEnv (its span
/// count is the call count).
struct EnvTrace {
    uint64_t syncs = 0;
    uint64_t append_bytes = 0;
    uint64_t reads_in_get = 0; ///< file reads while a Db::get runs
    std::vector<Tick> sync_lat;
};

/// Env decorator (over BlockEnv): every call and file-handle method
/// is an `env` span.
class TracingEnv : public Env
{
  public:
    TracingEnv(Env *inner, EnvTrace *out) : inner_(inner), out_(out) {}

    Result<std::unique_ptr<WritableFile>>
    new_writable(const std::string &name) override;
    Result<std::unique_ptr<ReadableFile>>
    open_readable(const std::string &name) override;
    Status delete_file(const std::string &name) override;
    bool file_exists(const std::string &name) const override;
    Result<uint64_t> file_size(const std::string &name) const override;
    std::vector<std::string> list_files() const override;
    uint64_t free_bytes() const override { return inner_->free_bytes(); }
    const EnvStats &stats() const override { return inner_->stats(); }

    /// Set while a Db::get is in flight (for reads_in_get).
    bool in_get = false;

  private:
    Env *inner_;
    EnvTrace *out_;
};

/**
 * MdVolume with its virtual entry points (read, flush) as `mdraid`
 * call spans. BlockEnv calls the non-virtual MdVolume::write overload,
 * which no decorator can interpose, so mdraid's write submit path runs
 * inside `env` spans; its completion side is still attributed through
 * the member-device decorators.
 */
class TracedMdVolume : public MdVolume
{
  public:
    using MdVolume::MdVolume;
    void read(uint64_t lba, uint32_t nsectors, IoCallback cb) override;
    void flush(IoCallback cb) override;
};

} // namespace pb
