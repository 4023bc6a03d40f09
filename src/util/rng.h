// Deterministic, portable random number generation for the MELODY simulator.
//
// All randomness in the library flows through util::Rng so that every
// experiment is bit-reproducible from a seed, independent of the standard
// library implementation (std::normal_distribution et al. are not portable
// across libstdc++ / libc++ / MSVC).
//
// The generator is xoshiro256++ (Blackman & Vigna), seeded via SplitMix64.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace melody::util {

/// SplitMix64 step; used to expand a single 64-bit seed into a full
/// xoshiro256++ state. Also usable standalone as a fast hash/mixer.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Counter-based stream derivation: hashes (master, stream, substream)
/// through a SplitMix64 chain into the seed of an independent generator.
/// The parallel execution layer derives one stream per (worker, run) pair —
/// Rng(derive_stream(master, worker_id, run)) — so the draws a simulation
/// makes are a pure function of those coordinates, never of thread
/// scheduling: serial and parallel execution produce bit-identical output.
constexpr std::uint64_t derive_stream(std::uint64_t master,
                                      std::uint64_t stream,
                                      std::uint64_t substream = 0) noexcept {
  std::uint64_t state = master;
  std::uint64_t mixed = splitmix64(state);
  state = mixed ^ stream;
  mixed = splitmix64(state);
  state = mixed ^ substream;
  return splitmix64(state);
}

/// xoshiro256++ pseudo-random generator with portable floating-point
/// derivations (uniform via 53-bit mantissa fill, normal via Box-Muller).
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    for (auto& word : state_) word = splitmix64(seed);
    cached_normal_valid_ = false;
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

  /// Raw 64 uniformly random bits.
  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform01() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform01();
  }

  /// Uniform integer in the closed interval [lo, hi]. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(bounded(span));
  }

  /// Standard normal deviate via Box-Muller (portable across platforms).
  double normal() noexcept;

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Advance the stream exactly as `n` calls of normal() would, leaving
  /// an identical State, without the transcendental work of the pairs
  /// whose deviates nobody reads.
  void discard_normals(std::uint64_t n) noexcept;

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept { return uniform01() < p; }

  /// Unbiased uniform integer in [0, bound) via Lemire rejection.
  std::uint64_t bounded(std::uint64_t bound) noexcept;

  /// Fisher-Yates shuffle of a vector, driven by this generator.
  template <typename T>
  void shuffle(std::vector<T>& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      using std::swap;
      swap(items[i - 1], items[bounded(i)]);
    }
  }

  /// Derive an independent child generator (for per-worker streams).
  Rng fork() noexcept { return Rng((*this)()); }

  /// Complete generator state for checkpointing. The cached Box-Muller
  /// deviate is part of the state: normal() produces deviates in pairs, so
  /// restoring the raw xoshiro words alone would desynchronize a stream
  /// captured between the two halves of a pair.
  struct State {
    std::uint64_t words[4]{};
    double cached_normal = 0.0;
    bool cached_normal_valid = false;

    bool operator==(const State&) const = default;
  };

  /// Capture the full state; restore() on any Rng resumes the exact stream.
  State state() const noexcept {
    State s;
    for (int i = 0; i < 4; ++i) s.words[i] = state_[i];
    s.cached_normal = cached_normal_;
    s.cached_normal_valid = cached_normal_valid_;
    return s;
  }

  void restore(const State& s) noexcept {
    for (int i = 0; i < 4; ++i) state_[i] = s.words[i];
    cached_normal_ = s.cached_normal;
    cached_normal_valid_ = s.cached_normal_valid;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
  double cached_normal_ = 0.0;
  bool cached_normal_valid_ = false;
};

}  // namespace melody::util
