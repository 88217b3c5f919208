// Deterministic pseudo-random number generation.
//
// All stochastic components (init, dropout, sampling, synthetic data) draw
// from an explicitly seeded Rng so experiments are reproducible bit-for-bit.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace stisan {

/// A small, fast, seedable PRNG (xoshiro256**).
///
/// Not cryptographically secure; statistically solid for simulation and
/// model training. Copyable so components can fork independent streams.
class Rng {
 public:
  /// Seeds the generator. Identical seeds yield identical streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Returns the next raw 64-bit value.
  uint64_t NextU64();

  /// Returns a uniform double in [0, 1).
  double Uniform();

  /// Returns a uniform float in [lo, hi).
  float UniformFloat(float lo, float hi);

  /// Returns a uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Returns a uniform integer in [lo, hi]. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Returns a standard normal sample (Box-Muller).
  double Normal();

  /// Returns a normal sample with the given mean and stddev.
  double Normal(double mean, double stddev);

  /// Returns an exponential sample with the given rate (lambda > 0).
  double Exponential(double rate);

  /// Returns true with probability p.
  bool Bernoulli(double p);

  /// Samples an index from unnormalised non-negative weights.
  /// Requires at least one strictly positive weight.
  size_t Categorical(const std::vector<double>& weights);

  /// Shuffles a vector in place (Fisher-Yates).
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    if (v.empty()) return;
    for (size_t i = v.size() - 1; i > 0; --i) {
      size_t j = UniformInt(static_cast<uint64_t>(i + 1));
      std::swap(v[i], v[j]);
    }
  }

  /// Forks an independent generator whose stream does not overlap usefully
  /// with this one (re-seeded from the current state).
  Rng Fork();

  /// Complete generator state (xoshiro words plus the Box-Muller cache).
  /// Restoring a captured state resumes the stream bit-identically, which
  /// checkpoint/resume relies on.
  struct State {
    std::array<uint64_t, 4> s{};
    bool have_cached_normal = false;
    double cached_normal = 0.0;
  };
  State GetState() const;
  void SetState(const State& state);

 private:
  uint64_t s_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Power-law (Zipf-like) indices in [0, n): P(i) ~ (i+1)^-alpha. Small n
/// draws from an n-entry weight table built once, with one Categorical
/// call per sample; large n uses rejection sampling.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double alpha);

  size_t Sample(Rng& rng) const;

 private:
  size_t n_;
  double alpha_;
  std::vector<double> weights_;  // empty when n is above the table limit
};

}  // namespace stisan
