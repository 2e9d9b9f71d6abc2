/**
 * @file
 * Unit tests for src/common: status, units, histogram, rng, crc32,
 * xor, bitmap.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "common/bitmap.h"
#include "common/crc32.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"
#include "common/xor.h"

namespace raizn {
namespace {

TEST(StatusTest, DefaultIsOk)
{
    Status s;
    EXPECT_TRUE(s.is_ok());
    EXPECT_TRUE(static_cast<bool>(s));
    EXPECT_EQ(s.code(), StatusCode::kOk);
}

TEST(StatusTest, ErrorCarriesMessage)
{
    Status s(StatusCode::kIoError, "disk on fire");
    EXPECT_FALSE(s.is_ok());
    EXPECT_EQ(s.to_string(), "IO_ERROR: disk on fire");
    EXPECT_EQ(s, StatusCode::kIoError);
}

TEST(StatusTest, AllCodesHaveNames)
{
    for (int c = 0; c <= static_cast<int>(StatusCode::kNotSupported); ++c) {
        EXPECT_NE(to_string(static_cast<StatusCode>(c)), "UNKNOWN");
    }
}

TEST(ResultTest, ValueAndError)
{
    Result<int> ok(42);
    ASSERT_TRUE(ok.is_ok());
    EXPECT_EQ(ok.value(), 42);

    Result<int> err(Status(StatusCode::kNotFound, "nope"));
    ASSERT_FALSE(err.is_ok());
    EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
    EXPECT_EQ(err.value_or(-1), -1);
}

TEST(UnitsTest, Conversions)
{
    EXPECT_EQ(bytes_to_sectors(64 * kKiB), 16u);
    EXPECT_EQ(sectors_to_bytes(16), 64 * kKiB);
    EXPECT_EQ(round_up(5, 4), 8u);
    EXPECT_EQ(round_up(8, 4), 8u);
    EXPECT_EQ(div_ceil(9, 4), 3u);
    EXPECT_NEAR(mib_per_sec(kMiB, kNsPerSec), 1.0, 1e-9);
}

TEST(HistogramTest, EmptyIsZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(0.5), 0u);
    EXPECT_EQ(h.min(), 0u);
}

TEST(HistogramTest, SingleValue)
{
    Histogram h;
    h.add(1000);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.min(), 1000u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_EQ(h.p50(), 1000u);
    EXPECT_EQ(h.p999(), 1000u);
}

TEST(HistogramTest, PercentilesWithinBucketError)
{
    Histogram h;
    for (uint64_t v = 1; v <= 100000; ++v)
        h.add(v);
    // Buckets have <= ~1.6% relative width.
    EXPECT_NEAR(static_cast<double>(h.p50()), 50000.0, 50000 * 0.02);
    EXPECT_NEAR(static_cast<double>(h.p99()), 99000.0, 99000 * 0.02);
    EXPECT_NEAR(static_cast<double>(h.p999()), 99900.0, 99900 * 0.02);
    EXPECT_NEAR(h.mean(), 50000.5, 1.0);
}

TEST(HistogramTest, MergeMatchesCombined)
{
    Histogram a, b, c;
    Rng rng(7);
    for (int i = 0; i < 5000; ++i) {
        uint64_t v = rng.next_below(1u << 20);
        (i % 2 ? a : b).add(v);
        c.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), c.count());
    EXPECT_EQ(a.min(), c.min());
    EXPECT_EQ(a.max(), c.max());
    EXPECT_EQ(a.p50(), c.p50());
    EXPECT_EQ(a.p999(), c.p999());
}

TEST(HistogramTest, ClearResets)
{
    Histogram h;
    h.add(5);
    h.clear();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.max(), 0u);
}

TEST(RngTest, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, BoundsRespected)
{
    Rng rng(42);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_LT(rng.next_below(17), 17u);
        uint64_t v = rng.next_range(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
        double d = rng.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(RngTest, UniformityRoughly)
{
    Rng rng(9);
    std::map<uint64_t, int> counts;
    constexpr int kDraws = 100000;
    for (int i = 0; i < kDraws; ++i)
        counts[rng.next_below(10)]++;
    for (auto &[v, n] : counts) {
        EXPECT_NEAR(n, kDraws / 10, kDraws / 10 * 0.1) << "value " << v;
    }
}

TEST(ZipfianTest, SkewsTowardHead)
{
    ZipfianGenerator zipf(1000, 0.99, 3);
    std::map<uint64_t, int> counts;
    for (int i = 0; i < 100000; ++i) {
        uint64_t v = zipf.next();
        ASSERT_LT(v, 1000u);
        counts[v]++;
    }
    // Item 0 must be the most popular and much hotter than the median.
    EXPECT_GT(counts[0], counts[500] * 10);
}

TEST(Crc32Test, KnownVector)
{
    // CRC32C("123456789") = 0xE3069283
    EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32Test, SeedChaining)
{
    const char *msg = "hello, zoned world";
    uint32_t whole = crc32c(msg, std::strlen(msg));
    uint32_t part = crc32c(msg, 5);
    part = crc32c(msg + 5, std::strlen(msg) - 5, part);
    EXPECT_EQ(whole, part);
}

TEST(Crc32Test, DetectsBitFlip)
{
    std::vector<uint8_t> buf(4096, 0xab);
    uint32_t before = crc32c(buf.data(), buf.size());
    buf[1234] ^= 0x01;
    EXPECT_NE(before, crc32c(buf.data(), buf.size()));
}

/// Seeds for the kernel comparison: a fresh CRC, the bloom filter's
/// seed, and two arbitrary values.
std::vector<uint32_t>
crc_seeds()
{
    Rng rng(0xc0ffee);
    return {0u, 0x9747b28cu, static_cast<uint32_t>(rng.next()),
            static_cast<uint32_t>(rng.next())};
}

std::vector<uint8_t>
random_bytes(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> out(n);
    for (auto &b : out)
        b = static_cast<uint8_t>(rng.next());
    return out;
}

TEST(Crc32Test, DispatchedMatchesPortableEveryShortLength)
{
    // Every length through three lanes plus 64 bytes covers the
    // single-stream path, the first interleaved block and the u64/u8
    // tails behind it, at every start offset; the seed rotates.
#if defined(__x86_64__)
    EXPECT_EQ(detail::crc32c_hw_active(),
              static_cast<bool>(__builtin_cpu_supports("sse4.2")));
#endif
    const size_t max_len = 3 * detail::kCrc32cLane + 64;
    auto buf = random_bytes(max_len + 8, 1);
    auto seeds = crc_seeds();
    for (size_t len = 0; len <= max_len; ++len) {
        for (size_t off = 0; off < 8; ++off) {
            const uint8_t *p = buf.data() + off;
            uint32_t seed = seeds[(len + off) % seeds.size()];
            ASSERT_EQ(crc32c(p, len, seed),
                      detail::crc32c_portable(p, len, seed))
                << "len " << len << " offset " << off << " seed " << seed;
        }
    }
}

TEST(Crc32Test, DispatchedMatchesPortableLongBuffers)
{
    const size_t lane = detail::kCrc32cLane;
    auto buf = random_bytes(64 * kKiB + 8, 2);
    std::vector<size_t> lens;
    for (size_t len = 3 * lane - 1; len <= 64 * kKiB; len += 997)
        lens.push_back(len);
    for (size_t len : {size_t{4096}, 6 * lane, 6 * lane + 7,
                       size_t{64 * kKiB}})
        lens.push_back(len);
    for (size_t off = 0; off < 8; ++off) {
        for (uint32_t seed : crc_seeds()) {
            for (size_t len : lens) {
                const uint8_t *p = buf.data() + off;
                ASSERT_EQ(crc32c(p, len, seed),
                          detail::crc32c_portable(p, len, seed))
                    << "len " << len << " offset " << off << " seed "
                    << seed;
            }
        }
    }
}

TEST(Crc32Test, SplitAndChainEqualsWholeBuffer)
{
    auto buf = random_bytes(64 * kKiB, 3);
    Rng rng(4);
    for (uint32_t seed : crc_seeds()) {
        uint32_t whole = crc32c(buf.data(), buf.size(), seed);
        ASSERT_EQ(whole,
                  detail::crc32c_portable(buf.data(), buf.size(), seed));
        for (int i = 0; i < 16; ++i) {
            size_t cut = rng.next_below(buf.size() + 1);
            uint32_t part = crc32c(buf.data(), cut, seed);
            part = crc32c(buf.data() + cut, buf.size() - cut, part);
            EXPECT_EQ(part, whole) << "cut " << cut << " seed " << seed;
        }
    }
}

TEST(Crc32Test, PortableKnownVector)
{
    EXPECT_EQ(detail::crc32c_portable("123456789", 9), 0xE3069283u);
}

TEST(XorTest, Avx2ChosenWhenCpuHasIt)
{
#if defined(__x86_64__)
    EXPECT_EQ(detail::xor_avx2_active(),
              static_cast<bool>(__builtin_cpu_supports("avx2")));
#else
    EXPECT_FALSE(detail::xor_avx2_active());
#endif
}

TEST(XorTest, DispatchedMatchesPortable)
{
    // Every length through 300 (the 128-byte block, 32-byte steps and
    // the word/byte tail) at every source offset, the destination
    // offset rotating; plus 64 KiB. Both sides evolve the same buffer,
    // and each check covers 32 guard bytes past the call's range.
    auto src = random_bytes(64 * kKiB + 64, 5);
    auto got = random_bytes(64 * kKiB + 96, 6);
    auto want = got;
    for (size_t len = 0; len <= 300; ++len) {
        for (size_t so = 0; so < 32; ++so) {
            for (size_t doff : {so, (so * 7 + len) % 32}) {
                xor_bytes(got.data() + doff, src.data() + so, len);
                detail::xor_bytes_portable(want.data() + doff,
                                           src.data() + so, len);
                ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                         doff + len + 32))
                    << "len " << len << " src +" << so << " dst +" << doff;
            }
        }
    }
    for (size_t off = 0; off < 32; ++off) {
        xor_bytes(got.data() + off, src.data() + 31 - off, 64 * kKiB);
        detail::xor_bytes_portable(want.data() + off, src.data() + 31 - off,
                                   64 * kKiB);
        ASSERT_EQ(got, want) << "64 KiB at dst +" << off;
    }
}

TEST(BitmapTest, SetTestClear)
{
    Bitmap bm(130);
    EXPECT_EQ(bm.size(), 130u);
    EXPECT_FALSE(bm.test(0));
    bm.set(0);
    bm.set(64);
    bm.set(129);
    EXPECT_TRUE(bm.test(0));
    EXPECT_TRUE(bm.test(64));
    EXPECT_TRUE(bm.test(129));
    EXPECT_EQ(bm.count_set(), 3u);
    bm.clear(64);
    EXPECT_FALSE(bm.test(64));
}

TEST(BitmapTest, RangeOps)
{
    Bitmap bm(256);
    bm.set_range(10, 20);
    EXPECT_TRUE(bm.all_set(10, 20));
    EXPECT_FALSE(bm.all_set(9, 20));
    EXPECT_FALSE(bm.all_set(10, 21));
    EXPECT_EQ(bm.find_first_clear(10), 20u);
    EXPECT_EQ(bm.find_first_clear(0), 0u);
    bm.clear_all();
    EXPECT_EQ(bm.count_set(), 0u);
}

} // namespace
} // namespace raizn
