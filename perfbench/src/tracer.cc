#include "tracer.h"

#include <time.h>

#include <chrono>
#include <cstdio>

#include "obs/prof/prof.h"

namespace pb {

Tracer g_tr;

uint64_t
host_ns()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

uint64_t
cpu_ns()
{
    struct timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
        static_cast<uint64_t>(ts.tv_nsec);
}

const char *
layer_name(Layer l)
{
    switch (l) {
      case Layer::kSim: return "sim";
      case Layer::kBench: return "bench";
      case Layer::kRaizn: return "raizn";
      case Layer::kMdraid: return "mdraid";
      case Layer::kEngine: return "engine";
      case Layer::kZns: return "zns";
      case Layer::kConv: return "conv";
      case Layer::kEnv: return "env";
      case Layer::kKv: return "kv";
      case Layer::kCount: break;
    }
    return "?";
}

uint64_t
SelfTimes::layer(Layer l) const
{
    uint64_t t = 0;
    for (uint64_t v : ns[static_cast<int>(l)])
        t += v;
    return t;
}

void
Tracer::reset(EventLoop *loop, bool traced)
{
    loop_ = loop;
    traced_ = traced;
    active = false;
    cur_req = 0;
    spans_.clear();
    spans_.shrink_to_fit();
    stack_.clear();
    req_class_.assign(1, OpClass::kOther);
    window_ns_ = window_cpu_ns_ = window_events_ = 0;
}

void
Tracer::window_begin()
{
    window_e0_ = prof::g_events_dispatched;
    if (traced_) {
        loop_->set_observer([this](Tick, uint64_t) { on_event_begin(); });
        loop_->set_probe([this](Tick) { on_event_end(); });
        active = true;
    }
    window_c0_ = cpu_ns();
    window_h0_ = host_ns();
}

void
Tracer::window_end()
{
    window_ns_ += host_ns() - window_h0_;
    window_cpu_ns_ += cpu_ns() - window_c0_;
    window_events_ += prof::g_events_dispatched - window_e0_;
    if (traced_) {
        active = false;
        loop_->set_observer(nullptr);
        loop_->set_probe(nullptr);
    }
}

uint64_t
Tracer::new_req(OpClass c)
{
    if (!traced_)
        return 0;
    req_class_.push_back(c);
    return req_class_.size() - 1;
}

uint32_t
Tracer::begin(Layer l, const char *name)
{
    uint32_t idx = static_cast<uint32_t>(spans_.size());
    uint32_t parent = stack_.empty() ? kNoSpan : stack_.back();
    spans_.push_back(Span{name, parent, l, cur_req, host_ns(), 0,
                          loop_->now(), 0});
    stack_.push_back(idx);
    return idx;
}

void
Tracer::end(uint32_t idx)
{
    Span &s = spans_[idx];
    s.h1 = host_ns();
    s.v1 = loop_->now();
    stack_.pop_back();
}

void
Tracer::on_event_begin()
{
    begin(Layer::kSim, "sim.event");
}

void
Tracer::on_event_end()
{
    end(stack_.back());
}

SelfTimes
Tracer::self_times() const
{
    SelfTimes st;
    std::vector<uint64_t> self(spans_.size());
    uint64_t top = 0;
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].h1 - spans_[i].h0;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.parent == kNoSpan)
            top += s.h1 - s.h0;
        else
            self[s.parent] -= s.h1 - s.h0;
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        OpClass c = s.req < req_class_.size() ? req_class_[s.req]
                                              : OpClass::kOther;
        st.ns[static_cast<int>(s.layer)][static_cast<int>(c)] += self[i];
        st.calls[static_cast<int>(s.layer)]++;
    }
    // Loop time outside every span: popping and dispatching events.
    st.ns[static_cast<int>(Layer::kSim)][0] += window_ns_ - top;
    st.window_ns = window_ns_;
    return st;
}

bool
Tracer::write_spans(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "idx\tname\tlayer\tparent\treq\thost_start_ns\t"
                    "host_end_ns\tvirt_start_ns\tvirt_end_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f, "%zu\t%s\t%s\t%lld\t%llu\t%llu\t%llu\t%llu\t%llu\n",
                     i, s.name, layer_name(s.layer),
                     s.parent == kNoSpan ? -1LL : (long long)s.parent,
                     (unsigned long long)s.req, (unsigned long long)s.h0,
                     (unsigned long long)s.h1, (unsigned long long)s.v0,
                     (unsigned long long)s.v1);
    }
    return std::fclose(f) == 0;
}

// ---- TracingDevice ---------------------------------------------------

void
TracingDevice::submit(IoRequest req, IoCallback cb)
{
    if (!g_tr.active) {
        inner_->submit(std::move(req), std::move(cb));
        return;
    }
    uint64_t rq = g_tr.cur_req;
    Tick v0 = g_tr.loop()->now();
    Scope span(dev_layer_, "dev.submit");
    inner_->submit(std::move(req), [this, rq, v0,
                                    cb = std::move(cb)](IoResult r) {
        if (g_tr.active)
            out_->lat.push_back(g_tr.loop()->now() - v0);
        Scope cb_span(array_layer_, "array.dev_cb", rq);
        cb(std::move(r));
    });
}

// ---- TracingEnv ------------------------------------------------------

class TracingWritable : public WritableFile
{
  public:
    TracingWritable(std::unique_ptr<WritableFile> inner, EnvTrace *out)
        : inner_(std::move(inner)), out_(out)
    {
    }

    Status
    append(const std::vector<uint8_t> &data) override
    {
        Scope s(Layer::kEnv, "env.append");
        if (g_tr.active)
            out_->append_bytes += data.size();
        return inner_->append(data);
    }

    Status
    sync() override
    {
        Scope s(Layer::kEnv, "env.sync");
        if (!g_tr.active)
            return inner_->sync();
        out_->syncs++;
        Tick v0 = g_tr.loop()->now();
        Status st = inner_->sync();
        out_->sync_lat.push_back(g_tr.loop()->now() - v0);
        return st;
    }

    Status
    close() override
    {
        Scope s(Layer::kEnv, "env.close");
        return inner_->close();
    }

    uint64_t size() const override { return inner_->size(); }

  private:
    std::unique_ptr<WritableFile> inner_;
    EnvTrace *out_;
};

class TracingReadable : public ReadableFile
{
  public:
    TracingReadable(std::unique_ptr<ReadableFile> inner, TracingEnv *env,
                    EnvTrace *out)
        : inner_(std::move(inner)), env_(env), out_(out)
    {
    }

    Result<std::vector<uint8_t>>
    read(uint64_t offset, uint64_t length) override
    {
        Scope s(Layer::kEnv, "env.read");
        if (g_tr.active && env_->in_get)
            out_->reads_in_get++;
        return inner_->read(offset, length);
    }

    uint64_t size() const override { return inner_->size(); }

  private:
    std::unique_ptr<ReadableFile> inner_;
    TracingEnv *env_;
    EnvTrace *out_;
};

Result<std::unique_ptr<WritableFile>>
TracingEnv::new_writable(const std::string &name)
{
    Scope s(Layer::kEnv, "env.new_writable");
    auto r = inner_->new_writable(name);
    if (!r.is_ok())
        return r.status();
    return std::unique_ptr<WritableFile>(
        new TracingWritable(std::move(r).value(), out_));
}

Result<std::unique_ptr<ReadableFile>>
TracingEnv::open_readable(const std::string &name)
{
    Scope s(Layer::kEnv, "env.open_readable");
    auto r = inner_->open_readable(name);
    if (!r.is_ok())
        return r.status();
    return std::unique_ptr<ReadableFile>(
        new TracingReadable(std::move(r).value(), this, out_));
}

Status
TracingEnv::delete_file(const std::string &name)
{
    Scope s(Layer::kEnv, "env.delete_file");
    return inner_->delete_file(name);
}

bool
TracingEnv::file_exists(const std::string &name) const
{
    Scope s(Layer::kEnv, "env.file_exists");
    return inner_->file_exists(name);
}

Result<uint64_t>
TracingEnv::file_size(const std::string &name) const
{
    Scope s(Layer::kEnv, "env.file_size");
    return inner_->file_size(name);
}

std::vector<std::string>
TracingEnv::list_files() const
{
    Scope s(Layer::kEnv, "env.list_files");
    return inner_->list_files();
}

// ---- TracedMdVolume --------------------------------------------------

void
TracedMdVolume::read(uint64_t lba, uint32_t nsectors, IoCallback cb)
{
    Scope s(Layer::kMdraid, "mdraid.read");
    MdVolume::read(lba, nsectors, std::move(cb));
}

void
TracedMdVolume::flush(IoCallback cb)
{
    Scope s(Layer::kMdraid, "mdraid.flush");
    MdVolume::flush(std::move(cb));
}

} // namespace pb
