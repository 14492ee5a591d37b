#pragma once

// Deterministic random number generation. All stochastic components of DUET
// (weight init, latency noise, random scheduling baselines) draw from an
// explicitly seeded Rng so experiments are reproducible run-to-run.
//
// The engine is `Mt19937_64`, a twin of `std::mt19937_64`: same seeding, same
// output sequence, and a UniformRandomBitGenerator, so the <random>
// distributions behind uniform/uniform_int/normal/shuffle draw what they drew
// over the standard engine. The twin refills its 312-word state without a
// branch and tempers on output; `fill` hands out a block of outputs at once.
//
// Weights are drawn in bulk by two samplers, each named by the serial code it
// reproduces bit for bit (values and the engine state it leaves behind), as
// libstdc++ implements `std::normal_distribution` (Marsaglia's polar method):
//   - fill_normal: n draws of ONE std::normal_distribution<float>(0, stddev),
//     which caches the second value of every accepted pair;
//   - fill_normal_per_element: each element a FRESH
//     std::normal_distribution<double>(0, stddev) draw, cast to float, so every
//     element consumes its own accepted pair.
// Both work in rounds of candidate pairs that never draw past the point where
// the serial code would stop; see rng.cpp.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace duet {

class Mt19937_64 {
 public:
  using result_type = uint64_t;
  static constexpr size_t kStateWords = 312;

  explicit Mt19937_64(result_type seed = 5489u);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (index_ == kStateWords) refill();
    return temper(state_[index_++]);
  }
  // The next `n` outputs, as n calls of operator() would return them.
  void fill(result_type* out, size_t n);

 private:
  static result_type temper(result_type x) {
    x ^= (x >> 29) & 0x5555555555555555ULL;
    x ^= (x << 17) & 0x71d67fffeda60000ULL;
    x ^= (x << 37) & 0xfff7eee000000000ULL;
    return x ^ (x >> 43);
  }
  void refill();

  result_type state_[kStateWords];
  size_t index_;
};

class Rng {
 public:
  explicit Rng(uint64_t seed = 42) : engine_(seed) {}

  // Uniform in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);
  // Uniform integer in [lo, hi] inclusive.
  int64_t uniform_int(int64_t lo, int64_t hi);
  // Normal with the given mean / stddev.
  double normal(double mean = 0.0, double stddev = 1.0);
  // Log-normal noise factor with median 1.0; `sigma` controls tail weight.
  // Used to model run-to-run latency variation (P99 / P99.9 experiments).
  double lognormal_factor(double sigma);
  // Bernoulli trial.
  bool coin(double p_true = 0.5);

  // Candidate pairs per sampling round. The round's scratch lives on the
  // stack, so a round costs no allocation and a small tensor pays only for
  // the pairs it needs.
  static constexpr size_t kRoundPairs = 256;

  // out[0..n) = n draws of one std::normal_distribution<float>(0, stddev).
  void fill_normal(float* out, size_t n, float stddev);
  // out[i] = float(normal(0.0, stddev)) for i in [0, n), in order.
  void fill_normal_per_element(float* out, size_t n, double stddev);

  // In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      const size_t j = static_cast<size_t>(uniform_int(0, static_cast<int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  Mt19937_64 engine_;
};

}  // namespace duet
