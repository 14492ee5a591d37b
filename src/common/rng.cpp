#include "common/rng.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

namespace duet {

Mt19937_64::Mt19937_64(result_type seed) : index_(kStateWords) {
  state_[0] = seed;
  for (size_t i = 1; i < kStateWords; ++i) {
    const result_type prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

// The standard twist with the conditional xor of the matrix A taken as a
// mask, so the refill has no data-dependent branch.
void Mt19937_64::refill() {
  constexpr size_t kShift = 156;
  constexpr result_type kUpper = ~result_type{0} << 31;
  constexpr result_type kMatrixA = 0xb5026f5aa96619e9ULL;
  const auto twist = [](result_type hi, result_type lo, result_type far) {
    const result_type y = (hi & kUpper) | (lo & ~kUpper);
    return far ^ (y >> 1) ^ ((result_type{0} - (y & 1)) & kMatrixA);
  };
  result_type* s = state_;
  size_t i = 0;
  for (; i < kStateWords - kShift; ++i) s[i] = twist(s[i], s[i + 1], s[i + kShift]);
  for (; i < kStateWords - 1; ++i) {
    s[i] = twist(s[i], s[i + 1], s[i + kShift - kStateWords]);
  }
  s[kStateWords - 1] = twist(s[kStateWords - 1], s[0], s[kShift - 1]);
  index_ = 0;
}

void Mt19937_64::fill(result_type* out, size_t n) {
  while (n > 0) {
    if (index_ == kStateWords) refill();
    const size_t m = std::min(n, kStateWords - index_);
    const result_type* s = state_ + index_;
    for (size_t i = 0; i < m; ++i) out[i] = temper(s[i]);
    index_ += m;
    out += m;
    n -= m;
  }
}

namespace {

// std::generate_canonical<Real, digits>(engine) on one 64-bit word, as
// libstdc++ computes it: Real(x) / 2^64, clamped to the largest Real below 1.
// Real(x) of an unsigned x compiles to a branch on the top bit, which a random
// word mispredicts half the time. Here both halves take the signed conversion
// and a mask selects: for x >= 2^63, Real(x) = 2 * Real((x >> 1) | (x & 1)),
// where the sticky low bit keeps the rounding of the bit shifted out.
template <typename Real>
inline Real canonical(uint64_t x) {
  constexpr Real kBelowOne = Real(1) - std::numeric_limits<Real>::epsilon() / 2;
  const uint64_t top = x >> 63;
  const uint64_t mask = uint64_t{0} - top;
  const uint64_t halved = (x >> 1) | (x & 1);
  const auto v = static_cast<int64_t>((halved & mask) | (x & ~mask));
  const Real scale = static_cast<Real>(top + 1) * static_cast<Real>(0x1p-64);
  return std::min(static_cast<Real>(v) * scale, kBelowOne);
}

// Marsaglia's polar method, expression for expression as libstdc++'s
// normal_distribution<Real> evaluates it. kPaired: one distribution, which
// returns y * mult and then its cached x * mult. Otherwise a fresh
// distribution per element, which returns y * mult and drops x * mult.
//
// Each round draws a block of candidate pairs, converts them, and compacts the
// accepted ones without a branch, then transforms them straight into `out`. A
// round draws no more pairs than the serial loop still needs if every pair is
// accepted, so it never reads past the point where that loop stops, and the
// engine is left exactly where the serial code leaves it.
template <typename Real, bool kPaired>
void sample_normal(Mt19937_64& engine, float* out, size_t n, Real stddev) {
  constexpr size_t kRound = Rng::kRoundPairs;
  uint64_t bits[2 * kRound];
  Real xs[kRound];
  Real ys[kRound];
  Real r2s[kRound];
  while (n > 0) {
    const size_t pairs = std::min(kPaired ? (n + 1) / 2 : n, kRound);
    engine.fill(bits, 2 * pairs);
    size_t accepted = 0;
    for (size_t i = 0; i < pairs; ++i) {
      const Real x = Real(2.0) * canonical<Real>(bits[2 * i]) - 1.0;
      const Real y = Real(2.0) * canonical<Real>(bits[2 * i + 1]) - 1.0;
      const Real r2 = x * x + y * y;
      xs[accepted] = x;
      ys[accepted] = y;
      r2s[accepted] = r2;
      accepted += !(r2 > 1.0 || r2 == 0.0);
    }
    for (size_t j = 0; j < accepted; ++j) {
      const Real mult = std::sqrt(-2 * std::log(r2s[j]) / r2s[j]);
      const Real first = ys[j] * mult;
      *out++ = static_cast<float>(first * stddev + Real(0));
      --n;
      if constexpr (kPaired) {
        if (n == 0) break;  // odd n: the serial code caches this x * mult
        const Real second = xs[j] * mult;
        *out++ = second * stddev + Real(0);
        --n;
      }
    }
  }
}

}  // namespace

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

int64_t Rng::uniform_int(int64_t lo, int64_t hi) {
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

double Rng::lognormal_factor(double sigma) {
  // Median of exp(N(0, sigma)) is exactly 1, so the factor only fattens the
  // upper tail without biasing the median latency.
  return std::exp(normal(0.0, sigma));
}

bool Rng::coin(double p_true) { return uniform() < p_true; }

void Rng::fill_normal(float* out, size_t n, float stddev) {
  sample_normal<float, true>(engine_, out, n, stddev);
}

void Rng::fill_normal_per_element(float* out, size_t n, double stddev) {
  sample_normal<double, false>(engine_, out, n, stddev);
}

}  // namespace duet
