#include "util/rng.h"

#include <cmath>
#include <numbers>

namespace melody::util {

double Rng::normal() noexcept {
  if (cached_normal_valid_) {
    cached_normal_valid_ = false;
    return cached_normal_;
  }
  // Box-Muller: two uniforms -> two independent standard normals.
  double u1 = uniform01();
  while (u1 <= 0.0) u1 = uniform01();  // log(0) guard
  const double u2 = uniform01();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  cached_normal_valid_ = true;
  return radius * std::cos(angle);
}

void Rng::discard_normals(std::uint64_t n) noexcept {
  if (n > 0 && cached_normal_valid_) {
    cached_normal_valid_ = false;
    --n;
  }
  // Every pair but the last draws its two uniforms only (with normal()'s
  // log(0) guard); the last goes through normal(), so the cached deviate,
  // spent or not, is the one n draws would leave.
  for (; n > 2; n -= 2) {
    while (uniform01() <= 0.0) {
    }
    uniform01();
  }
  for (; n > 0; --n) normal();
}

std::uint64_t Rng::bounded(std::uint64_t bound) noexcept {
  if (bound <= 1) return 0;
  // Lemire's multiply-shift rejection method.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t raw = (*this)();
    const auto product = static_cast<unsigned __int128>(raw) * bound;
    const auto low = static_cast<std::uint64_t>(product);
    if (low >= threshold) return static_cast<std::uint64_t>(product >> 64);
  }
}

}  // namespace melody::util
