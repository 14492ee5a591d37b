#pragma once

// The serial weight generators the bulk samplers in common/rng.cpp replace,
// kept as the oracle they are checked (and benchmarked) against: the standard
// engine and <random> distributions, one draw at a time.

#include <cstddef>
#include <random>

namespace duet::oracle {

// What Rng::fill_normal reproduces: n draws of one normal_distribution<float>.
inline void fill_normal(std::mt19937_64& engine, float* out, size_t n, float stddev) {
  std::normal_distribution<float> dist(0.0f, stddev);
  for (size_t i = 0; i < n; ++i) out[i] = dist(engine);
}

// What Rng::fill_normal_per_element reproduces: a fresh
// normal_distribution<double> per element, cast to float.
inline void fill_normal_per_element(std::mt19937_64& engine, float* out, size_t n,
                                    double stddev) {
  for (size_t i = 0; i < n; ++i) {
    std::normal_distribution<double> dist(0.0, stddev);
    out[i] = static_cast<float>(dist(engine));
  }
}

}  // namespace duet::oracle
