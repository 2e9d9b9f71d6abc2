/**
 * @file
 * google-benchmark microbenchmarks of RAIZN's hot CPU kernels: XOR
 * parity, GF(256) Q-parity accumulate and two-failure solve, partial-
 * parity delta computation, CRC32C (bloom key, sector and stripe-unit
 * sizes), metadata entry encode/decode, latency histogram insertion,
 * and event-loop dispatch.
 *
 * `--host-baseline <path>` additionally writes the per-kernel results
 * (ns/op and bytes/s) as a bench-gate JSON with wide, report-only
 * tolerance bands — the committed BENCH_host_kernels.json wall-clock
 * regression baseline. The bands are warn-only because host timings
 * depend on the machine; the value of the baseline is the trend line
 * CI prints, not a hard gate.
 */
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "array/gf256.h"
#include "common/crc32.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/xor.h"
#include "raizn/metadata.h"
#include "raizn/stripe_buffer.h"
#include "sim/event_loop.h"
#include "zns/block_device.h"

namespace raizn {
namespace {

void
BM_Xor64K(benchmark::State &state)
{
    std::vector<uint8_t> dst(64 * kKiB, 0xaa);
    std::vector<uint8_t> src(64 * kKiB, 0x55);
    for (auto _ : state) {
        xor_bytes(dst.data(), src.data(), dst.size());
        benchmark::DoNotOptimize(dst.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(dst.size()));
}
BENCHMARK(BM_Xor64K);

/// acc ^= g^3 * src over `len` bytes of run-time patterns.
void
run_gf_accumulate(benchmark::State &state, size_t len)
{
    auto src = pattern_data(len / kSectorSize, 5);
    auto acc = pattern_data(len / kSectorSize, 6);
    for (auto _ : state) {
        gf256::accumulate(acc.data(), src.data(), len, 3);
        benchmark::DoNotOptimize(acc.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(len));
}

void
BM_GfAccumulate4K(benchmark::State &state)
{
    run_gf_accumulate(state, 4 * kKiB);
}
BENCHMARK(BM_GfAccumulate4K);

void
BM_GfAccumulate64K(benchmark::State &state)
{
    run_gf_accumulate(state, 64 * kKiB); // one 16-sector stripe unit
}
BENCHMARK(BM_GfAccumulate64K);

void
BM_GfSolveTwo64K(benchmark::State &state)
{
    const size_t len = 64 * kKiB;
    auto p = pattern_data(16, 7);
    auto q = pattern_data(16, 8);
    std::vector<uint8_t> dx(len), dy(len);
    for (auto _ : state) {
        gf256::solve_two(dx.data(), dy.data(), p.data(), q.data(), len, 1,
                         3);
        benchmark::DoNotOptimize(dx.data());
        benchmark::DoNotOptimize(dy.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(len));
}
BENCHMARK(BM_GfSolveTwo64K);

void
BM_FullStripeParity(benchmark::State &state)
{
    StripeBuffer buf(4, 16, false);
    buf.assign(0);
    auto data = pattern_data(64, 1);
    buf.fill(0, data.data(), 64);
    for (auto _ : state) {
        auto parity = buf.full_parity();
        benchmark::DoNotOptimize(parity.data());
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            64 * kSectorSize);
}
BENCHMARK(BM_FullStripeParity);

void
BM_ParityDelta4K(benchmark::State &state)
{
    StripeBuffer buf(4, 16, false);
    buf.assign(0);
    auto data = pattern_data(1, 1);
    buf.fill(0, data.data(), 1);
    for (auto _ : state) {
        uint64_t lo, hi;
        auto delta = buf.parity_delta(0, 1, &lo, &hi);
        benchmark::DoNotOptimize(delta.data());
    }
}
BENCHMARK(BM_ParityDelta4K);

/// CRC32C over the first `len` bytes of a run-time pattern, chained
/// so each iteration depends on the last.
void
run_crc32c(benchmark::State &state, size_t len)
{
    auto bytes = pattern_data(16, 3);
    uint32_t crc = 0;
    for (auto _ : state) {
        crc = crc32c(bytes.data(), len, crc);
        benchmark::DoNotOptimize(crc);
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(len));
}

void
BM_Crc32c16(benchmark::State &state)
{
    run_crc32c(state, 16); // a bloom filter key
}
BENCHMARK(BM_Crc32c16);

void
BM_Crc32c4K(benchmark::State &state)
{
    run_crc32c(state, 4 * kKiB); // one sector of the CRC catalog
}
BENCHMARK(BM_Crc32c4K);

void
BM_Crc32c64K(benchmark::State &state)
{
    run_crc32c(state, 64 * kKiB);
}
BENCHMARK(BM_Crc32c64K);

void
BM_MdEntryEncode(benchmark::State &state)
{
    MdHeader h;
    h.type = MdType::kPartialParity;
    h.start_lba = 123;
    h.end_lba = 456;
    h.generation = 7;
    auto payload = pattern_data(16, 9);
    std::vector<uint8_t> inl(12, 0);
    for (auto _ : state) {
        auto bytes = encode_md_entry(h, inl, payload);
        benchmark::DoNotOptimize(bytes.data());
    }
}
BENCHMARK(BM_MdEntryEncode);

void
BM_MdEntryDecode(benchmark::State &state)
{
    MdHeader h;
    h.type = MdType::kPartialParity;
    auto bytes = encode_md_entry(h, std::vector<uint8_t>(12, 0),
                                 pattern_data(16, 9));
    for (auto _ : state) {
        auto entry = decode_md_entry(bytes, 0);
        benchmark::DoNotOptimize(&entry);
    }
}
BENCHMARK(BM_MdEntryDecode);

void
BM_HistogramAdd(benchmark::State &state)
{
    Histogram h;
    Rng rng(1);
    for (auto _ : state)
        h.add(rng.next_below(1u << 24));
    benchmark::DoNotOptimize(&h);
}
BENCHMARK(BM_HistogramAdd);

void
BM_EventLoopDispatch(benchmark::State &state)
{
    EventLoop loop;
    uint64_t count = 0;
    for (auto _ : state) {
        loop.schedule_after(1, [&count] { count++; });
        loop.run_events(1);
    }
    benchmark::DoNotOptimize(count);
}
BENCHMARK(BM_EventLoopDispatch);

/// ConsoleReporter that also collects one row per benchmark run, so
/// the normal table still prints while --host-baseline gets data.
class CollectingReporter : public benchmark::ConsoleReporter
{
  public:
    struct Row {
        std::string name;
        double ns_per_op = 0;
        double bytes_per_second = 0; ///< 0 when the kernel sets no rate
    };
    std::vector<Row> rows;

    void
    ReportRuns(const std::vector<Run> &report) override
    {
        for (const Run &run : report) {
            if (run.run_type != Run::RT_Iteration || run.error_occurred)
                continue;
            Row row;
            row.name = run.benchmark_name();
            row.ns_per_op = run.GetAdjustedRealTime();
            auto it = run.counters.find("bytes_per_second");
            if (it != run.counters.end())
                row.bytes_per_second = it->second;
            rows.push_back(std::move(row));
        }
        ConsoleReporter::ReportRuns(report);
    }
};

int
write_host_baseline(const std::string &path,
                    const std::vector<CollectingReporter::Row> &rows)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"points\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        const auto &r = rows[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"ns_per_op\": %.1f, "
                     "\"bytes_per_second\": %.0f}%s\n",
                     r.name.c_str(), r.ns_per_op, r.bytes_per_second,
                     i + 1 < rows.size() ? "," : "");
    }
    // Host-clock measurements: wide and report-only. A 10x band still
    // catches an accidentally quadratic kernel while ignoring machine
    // and scheduler noise.
    std::fprintf(f,
                 "  ],\n"
                 "  \"tolerance\": {\n"
                 "    \"ns_per_op\": {\"rel\": 10.0, \"abs\": 100, "
                 "\"warn\": true},\n"
                 "    \"bytes_per_second\": {\"rel\": 10.0, "
                 "\"abs\": 1000000, \"warn\": true}\n"
                 "  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu kernels)\n", path.c_str(), rows.size());
    return 0;
}

} // namespace
} // namespace raizn

int
main(int argc, char **argv)
{
    // Peel off --host-baseline before benchmark sees the arg list.
    std::string baseline_path;
    std::vector<char *> bargv;
    for (int i = 0; i < argc; ++i) {
        if (std::string(argv[i]) == "--host-baseline" && i + 1 < argc) {
            baseline_path = argv[++i];
            continue;
        }
        bargv.push_back(argv[i]);
    }
    int bargc = static_cast<int>(bargv.size());
    benchmark::Initialize(&bargc, bargv.data());
    if (benchmark::ReportUnrecognizedArguments(bargc, bargv.data()))
        return 1;
    raizn::CollectingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    if (!baseline_path.empty())
        return raizn::write_host_baseline(baseline_path, reporter.rows);
    return 0;
}
