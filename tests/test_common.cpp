// Unit tests for common utilities: stats, rng, strings, thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "common/threadpool.hpp"
#include "rng_oracle.hpp"

namespace duet {
namespace {

// --- stats -------------------------------------------------------------------

TEST(Stats, PercentileExactValues) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 5.5);
}

// n < 5 uses nearest-rank: tiny samples report an actual observation
// instead of extrapolating a fictitious tail (p99 of two points is the
// larger point, not 9.9 manufactured between them).
TEST(Stats, PercentileTinySampleNearestRank) {
  std::vector<double> v{0.0, 10.0};
  // rank = ceil(0.25 * 2) = 1 -> first observation.
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 0.0);
  // rank = ceil(0.99 * 2) = 2 -> second observation, not 9.9.
  EXPECT_DOUBLE_EQ(percentile(v, 0.99), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.51), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 10.0);
}

TEST(Stats, PercentileNearestRankFourSamples) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 2.0);    // ceil(2.0) = rank 2
  EXPECT_DOUBLE_EQ(percentile(v, 0.75), 3.0);   // ceil(3.0) = rank 3
  EXPECT_DOUBLE_EQ(percentile(v, 0.99), 4.0);   // ceil(3.96) = rank 4
  EXPECT_DOUBLE_EQ(percentile(v, 0.24), 1.0);   // ceil(0.96) = rank 1
}

// At n >= 5 the convention switches to linear interpolation.
TEST(Stats, PercentileInterpolatesAtFive) {
  std::vector<double> v{0.0, 10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.375), 15.0);  // between ranks, interpolated
}

TEST(Stats, PercentileSingleSample) {
  EXPECT_DOUBLE_EQ(percentile({42.0}, 0.999), 42.0);
}

TEST(Stats, PercentileEmptyThrows) {
  std::vector<double> empty;
  EXPECT_THROW(percentile_sorted(empty, 0.5), Error);
}

TEST(Stats, PercentileBadQuantileThrows) {
  std::vector<double> v{1.0};
  EXPECT_THROW(percentile_sorted(v, 1.5), Error);
}

TEST(Stats, RecorderSummary) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) rec.add(i);
  const SummaryStats s = rec.summarize();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.p50, 50.5, 1e-9);
  EXPECT_GT(s.p99, 98.0);
  EXPECT_GT(s.stddev, 0.0);
}

TEST(Stats, EmptySummaryIsZero) {
  const SummaryStats s = LatencyRecorder().summarize();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, MeanStd) {
  EXPECT_DOUBLE_EQ(mean_of({2.0, 4.0}), 3.0);
  EXPECT_NEAR(stddev_of({2.0, 4.0}), std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(stddev_of({5.0}), 0.0);
}

// --- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= a.uniform() != b.uniform();
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, LognormalFactorMedianNearOne) {
  Rng rng(4);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(rng.lognormal_factor(0.2));
  EXPECT_NEAR(percentile(samples, 0.5), 1.0, 0.02);
  // Upper tail heavier than lower.
  EXPECT_GT(percentile(samples, 0.999) - 1.0, 1.0 - percentile(samples, 0.001));
}

TEST(Rng, NormalMoments) {
  Rng rng(5);
  std::vector<double> samples;
  for (int i = 0; i < 50000; ++i) samples.push_back(rng.normal(2.0, 3.0));
  EXPECT_NEAR(mean_of(samples), 2.0, 0.1);
  EXPECT_NEAR(stddev_of(samples), 3.0, 0.1);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(6);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.shuffle(v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

// --- rng: the engine twin and the bulk weight samplers ------------------------

// Index of the first element whose bits differ, or n when all match.
size_t first_bit_mismatch(const std::vector<float>& a, const std::vector<float>& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) return i;
  }
  return a.size();
}

TEST(Rng, TwinMatchesStdMt19937_64) {
  // The standard fixes this value: the 10000th output of a default-seeded
  // mt19937_64.
  Mt19937_64 standard;
  for (int i = 1; i < 10000; ++i) standard();
  EXPECT_EQ(standard(), 9981545732273789042ULL);

  for (const uint64_t seed : {uint64_t{0}, uint64_t{42}, ~uint64_t{0}}) {
    Mt19937_64 twin(seed);
    std::mt19937_64 ref(seed);
    size_t mismatches = 0;
    for (int i = 0; i < 1'000'000; ++i) mismatches += twin() != ref();
    EXPECT_EQ(mismatches, 0u) << "seed " << seed;

    // 10^6 is not a multiple of 312, so this copy is taken mid-block; it and
    // its source continue the sequence, one word at a time and in bulk.
    Mt19937_64 copy = twin;
    std::vector<uint64_t> bulk(1000);
    copy.fill(bulk.data(), bulk.size());
    for (size_t i = 0; i < bulk.size(); ++i) {
      const uint64_t want = ref();
      ASSERT_EQ(bulk[i], want) << "seed " << seed << " bulk word " << i;
      ASSERT_EQ(twin(), want) << "seed " << seed << " word " << i;
    }
    EXPECT_EQ(copy(), twin());
  }
}

TEST(Rng, FirstDrawsForSeed42AreFixed) {
  Mt19937_64 engine(42);
  EXPECT_EQ(engine(), 13930160852258120406ULL);
  EXPECT_EQ(engine(), 11788048577503494824ULL);
  EXPECT_EQ(engine(), 13874630024467741450ULL);

  const std::vector<float> paired = {0x1.68f44p-1f, 0x1.4b37d2p+0f, -0x1.25efc2p-1f,
                                     0x1.97876p-2f, -0x1.e81c8ap+0f};
  const std::vector<float> per_element = {0x1.68f438p-1f, -0x1.25efc2p-1f,
                                          -0x1.e81c88p+0f, -0x1.72c03ep-1f,
                                          0x1.ebf05ap-7f};
  std::vector<float> got(5);
  Rng a(42);
  a.fill_normal(got.data(), got.size(), 1.0f);
  EXPECT_EQ(first_bit_mismatch(got, paired), got.size());
  Rng b(42);
  b.fill_normal_per_element(got.data(), got.size(), 1.0);
  EXPECT_EQ(first_bit_mismatch(got, per_element), got.size());
}

TEST(Rng, BulkSamplersKeepTheirDistribution) {
  Rng rng(11);
  std::vector<float> v(200'000);
  rng.fill_normal(v.data(), v.size(), 2.0f);
  const std::vector<double> paired(v.begin(), v.end());
  EXPECT_NEAR(mean_of(paired), 0.0, 0.02);
  EXPECT_NEAR(stddev_of(paired), 2.0, 0.02);
  rng.fill_normal_per_element(v.data(), v.size(), 0.5);
  const std::vector<double> single(v.begin(), v.end());
  EXPECT_NEAR(mean_of(single), 0.0, 0.005);
  EXPECT_NEAR(stddev_of(single), 0.5, 0.005);
}

#ifdef __GLIBCXX__
// The samplers reproduce libstdc++'s normal_distribution, whose algorithm the
// standard leaves to the library, so the oracle comparison is libstdc++-only.
TEST(Rng, BulkSamplersMatchSerialOracle) {
  const size_t round = Rng::kRoundPairs;  // per-element: pairs = elements
  const std::vector<size_t> sizes = {0,         1,         2,         3,
                                     311,       312,       313,       round - 1,
                                     round,     round + 1, 2 * round - 1,
                                     2 * round, 2 * round + 1, 1'000'000,
                                     1'000'001};
  // seed 42 starts each fill seven words into an engine block.
  for (const auto& [seed, skip] : {std::pair<uint64_t, int>{3, 0}, {42, 7}}) {
    for (const float stddev : {1.0f, 0.05f, 2.5f}) {
      for (const size_t n : sizes) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " stddev " << stddev
                                          << " n " << n);
        Rng rng(seed);
        std::mt19937_64 ref(seed);
        std::uniform_real_distribution<double> uniform(0.0, 1.0);
        for (int i = 0; i < skip; ++i) ASSERT_EQ(rng.uniform(), uniform(ref));
        std::vector<float> got(n);
        std::vector<float> want(n);

        rng.fill_normal(got.data(), n, stddev);
        oracle::fill_normal(ref, want.data(), n, stddev);
        EXPECT_EQ(first_bit_mismatch(got, want), n) << "fill_normal";
        EXPECT_EQ(rng.uniform(), uniform(ref)) << "engine after fill_normal";

        rng.fill_normal_per_element(got.data(), n, stddev);
        oracle::fill_normal_per_element(ref, want.data(), n, stddev);
        EXPECT_EQ(first_bit_mismatch(got, want), n) << "fill_normal_per_element";
        EXPECT_EQ(rng.uniform(), uniform(ref)) << "engine after fill_normal_per_element";
      }
    }
  }
}
#endif

// --- strings -----------------------------------------------------------------

TEST(StringUtil, SplitJoinRoundTrip) {
  const std::vector<std::string> parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join(parts, ","), "a,b,,c");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  hi \n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtil, HumanTime) {
  EXPECT_EQ(human_time(0.002), "2.000 ms");
  EXPECT_EQ(human_time(3.5e-6), "3.50 us");
  EXPECT_EQ(human_time(2.0), "2.000 s");
}

TEST(StringUtil, HumanBytes) {
  EXPECT_EQ(human_bytes(512), "512.0 B");
  EXPECT_EQ(human_bytes(1536), "1.5 KiB");
  EXPECT_EQ(human_bytes(3u << 20), "3.0 MiB");
}

TEST(StringUtil, Strprintf) {
  EXPECT_EQ(strprintf("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strprintf("%s", std::string(500, 'a').c_str()).size(), 500u);
}

// --- thread pool ---------------------------------------------------------------

TEST(ThreadPool, SubmitRuns) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(5000);
  pool.parallel_for(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForSmallRunsInline) {
  ThreadPool pool(4);
  int sum = 0;  // intentionally unsynchronized: must run inline
  pool.parallel_for(10, [&](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, ParallelForZero) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(1);
  auto fut = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

}  // namespace
}  // namespace duet
