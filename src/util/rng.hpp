// Deterministic pseudo-random number generation for reproducible experiments.
//
// All stochastic code in this repository draws from util::Rng rather than
// <random> engines directly, so that a (seed, stream) pair fully determines
// every experiment. The generator is xoshiro256**, seeded through splitmix64
// as recommended by its authors.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace pathsep::util {

/// xoshiro256** pseudo-random generator with a std::uniform_random_bit_engine
/// compatible interface plus convenience sampling helpers.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit lanes via splitmix64 so that nearby seeds yield
  /// uncorrelated streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit value.
  result_type operator()();

  /// Uniform integer in [0, bound). Requires bound > 0. Unbiased (rejection).
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t next_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform double in [lo, hi).
  double next_double(double lo, double hi);

  /// Bernoulli trial with success probability p.
  bool next_bool(double p = 0.5);

  /// Index sampled from non-negative weights (sum must be positive).
  std::size_t next_weighted(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = next_below(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// k distinct values sampled uniformly from [0, n). Requires k <= n.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// A generator whose stream is independent of this one (jump by reseeding
  /// from the current state through splitmix64).
  Rng split();

 private:
  std::uint64_t state_[4];
};

/// splitmix64 step, exposed for tests and for hashing-based seeding.
std::uint64_t splitmix64(std::uint64_t& state);

}  // namespace pathsep::util
