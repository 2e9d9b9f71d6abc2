/**
 * @file
 * mdraid resync (§6.2, Fig. 12): after a failed device is replaced,
 * md reconstructs and rewrites the replacement's ENTIRE address space.
 * Unlike RAIZN it cannot distinguish valid data from free space, so
 * the time to repair is constant regardless of array fill.
 */
#include <cassert>
#include <map>

#include "common/logging.h"
#include "common/xor.h"
#include "mdraid/md_volume.h"
#include "obs/trace.h"
#include "sim/event_loop.h"

namespace raizn {

namespace {

struct ResyncJob {
    uint32_t dev = 0;
    uint64_t nchunks = 0; ///< chunks on the replacement device
    uint64_t next_issue = 0;
    uint64_t completed = 0;
    uint32_t inflight = 0;
    Status status;
    std::function<void(uint64_t, uint64_t)> progress;
    StatusCb done;
    bool finished = false;
    bool throttle_armed = false; ///< refill wake-up already scheduled

    // Trace correlation (0 = tracing detached).
    uint64_t trace_req = 0;
    uint64_t total_token = 0; ///< open "resync.device" span

    static constexpr uint64_t kWindow = 32;
};

} // namespace

void
MdVolume::resync_device(uint32_t dev,
                        std::function<void(uint64_t, uint64_t)> progress,
                        StatusCb done)
{
    if (failed_dev_ != static_cast<int>(dev) || devs_[dev]->failed()) {
        loop_->schedule_after(1, [done = std::move(done)] {
            done(Status(StatusCode::kInvalidArgument,
                        "device not failed+replaced"));
        });
        return;
    }

    auto job = std::make_shared<ResyncJob>();
    job->dev = dev;
    job->nchunks = devs_[dev]->geometry().nsectors / cfg_.chunk_sectors;
    job->progress = std::move(progress);
    job->done = std::move(done);
    if (trace_ != nullptr) {
        job->trace_req = trace_->next_request_id();
        job->total_token = trace_->begin_span(
            "resync.device", job->trace_req, obs::kTrackMetadata,
            loop_->now());
    }

    // Online resync: a configured rate caps resync traffic so degraded
    // foreground service keeps its floor (adaptive mode additionally
    // backs off when the foreground write EWMA rises).
    throttle_.reset();
    if (lifecycle_.throttle.rate_sectors_per_sec > 0) {
        throttle_ =
            std::make_unique<RebuildThrottle>(loop_, lifecycle_.throttle);
        throttle_->set_baseline_latency(fg_write_ewma_ns_);
    }
    resyncing_ = true;

    auto pump = std::make_shared<std::function<void()>>();
    *pump = [this, job, pump]() {
        if (job->finished)
            return;
        while (job->next_issue < job->nchunks &&
               job->inflight < ResyncJob::kWindow) {
            if (throttle_ != nullptr &&
                !throttle_->try_acquire(cfg_.chunk_sectors)) {
                stats_.resync_throttle_stalls++;
                if (!job->throttle_armed) {
                    job->throttle_armed = true;
                    loop_->schedule_after(
                        throttle_->ns_until(cfg_.chunk_sectors),
                        [pump, job, alive = alive_] {
                            if (!*alive)
                                return;
                            job->throttle_armed = false;
                            (*pump)();
                        });
                }
                break;
            }
            uint64_t stripe = job->next_issue++;
            job->inflight++;
            int pos = data_pos_of_dev(stripe, job->dev);
            // Reconstruct this device's chunk from every other device:
            // XOR works for both data chunks and the parity chunk.
            struct Acc {
                uint32_t pending = 0;
                bool issued_all = false;
                std::vector<uint8_t> data;
            };
            auto acc = std::make_shared<Acc>();
            if (store_data_) {
                acc->data.assign(
                    static_cast<size_t>(cfg_.chunk_sectors) * kSectorSize,
                    0);
            }
            auto write_out = [this, job, stripe, acc, pump]() {
                IoRequest req;
                req.op = IoOp::kWrite;
                req.slba = chunk_pba(stripe);
                req.nsectors = cfg_.chunk_sectors;
                req.trace_req = job->trace_req;
                req.trace_stage = "resync.write";
                req.cause = obs::Cause::kResync;
                if (store_data_)
                    req.data = std::move(acc->data);
                dev_submit(
                    job->dev, std::move(req),
                    [this, job, pump](IoResult r) {
                        if (!r.status.is_ok() && job->status.is_ok())
                            job->status = r.status;
                        stats_.resynced_sectors += cfg_.chunk_sectors;
                        job->inflight--;
                        job->completed++;
                        if (job->progress &&
                            job->completed % 1024 == 0) {
                            job->progress(job->completed, job->nchunks);
                        }
                        if (job->completed == job->nchunks &&
                            !job->finished) {
                            job->finished = true;
                            failed_dev_ = -1;
                            resyncing_ = false;
                            throttle_.reset();
                            if (trace_ != nullptr &&
                                job->total_token != 0) {
                                trace_->end_span(job->total_token,
                                                 loop_->now());
                            }
                            auto done = std::move(job->done);
                            done(job->status);
                            // Break the pump's self-reference cycle.
                            *pump = [] {};
                            return;
                        }
                        (*pump)();
                    });
            };
            auto one = [this, job, acc, write_out](IoResult r) {
                if (!r.status.is_ok() && job->status.is_ok())
                    job->status = r.status;
                if (!r.data.empty() && store_data_) {
                    xor_bytes(acc->data.data(), r.data.data(),
                              std::min(r.data.size(), acc->data.size()));
                }
                if (--acc->pending == 0 && acc->issued_all)
                    write_out();
            };
            (void)pos;
            for (uint32_t d = 0; d < devs_.size(); ++d) {
                if (d == job->dev)
                    continue;
                acc->pending++;
                IoRequest rreq = IoRequest::read(chunk_pba(stripe),
                                                 cfg_.chunk_sectors);
                rreq.trace_req = job->trace_req;
                rreq.trace_stage = "resync.read";
                rreq.cause = obs::Cause::kResync;
                dev_submit(d, std::move(rreq), one);
            }
            acc->issued_all = true;
        }
    };
    loop_->schedule_after(1, [pump] { (*pump)(); });
}

} // namespace raizn
