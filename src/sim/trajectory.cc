#include "sim/trajectory.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "util/stats.h"

namespace melody::sim {

std::string to_string(TrajectoryKind kind) {
  switch (kind) {
    case TrajectoryKind::kRising: return "rising";
    case TrajectoryKind::kDeclining: return "declining";
    case TrajectoryKind::kFluctuating: return "fluctuating";
    case TrajectoryKind::kStable: return "stable";
  }
  return "unknown";
}

namespace {

// Bound on every stored magnitude of a loaded stream. Shapes stay below
// 2e100 and the drift below ~450x the noise scale, so no sum or product of
// the recurrence reaches Inf (nor Inf - Inf, NaN).
constexpr double kMaxMagnitude = 1e100;

bool plausible(double x) { return std::abs(x) <= kMaxMagnitude; }

/// The deterministic part of q^r.
double shape_at(const TrajectoryConfig& config, int r) {
  const double progress =
      std::min(1.0, static_cast<double>(r) / std::max(1, config.horizon));
  double shape = config.start_level;
  switch (config.kind) {
    case TrajectoryKind::kRising:
      shape += config.swing * progress;
      break;
    case TrajectoryKind::kDeclining:
      shape -= config.swing * progress;
      break;
    case TrajectoryKind::kFluctuating:
      shape += config.swing *
               std::sin(2.0 * std::numbers::pi * r / config.period +
                        config.phase);
      break;
    case TrajectoryKind::kStable:
      break;
  }
  return shape;
}

void validate(const TrajectoryStream::State& s) {
  const TrajectoryConfig& c = s.config;
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("trajectory: ") + what);
  };
  if (static_cast<unsigned>(c.kind) >
      static_cast<unsigned>(TrajectoryKind::kStable)) {
    fail("unknown kind");
  }
  for (const double x : {c.start_level, c.swing, c.phase, c.noise_stddev,
                         c.min_quality, c.max_quality, s.drift,
                         s.rng.cached_normal}) {
    if (!plausible(x)) fail("non-finite or implausible field");
  }
  if (!(c.noise_stddev >= 0.0)) fail("negative noise");
  if (!(c.period >= 1.0 && c.period <= kMaxMagnitude)) fail("bad period");
  if (!(c.min_quality <= c.max_quality)) fail("min above max");
  if (s.length < 0 || s.run < 0 || s.run > s.length) fail("bad run");
  if ((s.rng.words[0] | s.rng.words[1] | s.rng.words[2] | s.rng.words[3]) ==
      0) {
    fail("all-zero generator");
  }
}

}  // namespace

TrajectoryStream::TrajectoryStream(const TrajectoryConfig& config, int length,
                                   const util::Rng& rng)
    : TrajectoryStream(State{config, length, 0, 0.0, rng.state()}) {}

TrajectoryStream::TrajectoryStream(const State& state)
    : config_(state.config),
      length_(state.length),
      run_(state.run),
      drift_(state.drift) {
  validate(state);
  rng_.restore(state.rng);
}

TrajectoryStream::State TrajectoryStream::state() const noexcept {
  return State{config_, length_, run_, drift_, rng_.state()};
}

double TrajectoryStream::value() const noexcept {
  if (run_ == 0) return 0.0;
  return std::clamp(shape_at(config_, run_) + drift_, config_.min_quality,
                    config_.max_quality);
}

void TrajectoryStream::advance() noexcept {
  if (run_ >= length_) return;
  ++run_;
  drift_ += rng_.normal(0.0, config_.noise_stddev);
  // Pull the walk gently back toward the deterministic shape so the noise
  // stays a perturbation rather than dominating the pattern.
  drift_ *= 0.98;
}

std::vector<double> generate_trajectory(const TrajectoryConfig& config, int runs,
                                        util::Rng& rng) {
  runs = std::max(runs, 0);
  TrajectoryStream stream(config, runs, rng);
  std::vector<double> quality;
  quality.reserve(static_cast<std::size_t>(runs));
  for (int r = 1; r <= runs; ++r) {
    stream.advance();
    quality.push_back(stream.value());
  }
  rng = stream.rng();
  return quality;
}

bool is_stable(std::span<const double> quality, const StabilityCriteria& c) {
  if (quality.size() < 2) return true;
  const util::LinearFit fit = util::linear_trend(quality);
  return std::abs(fit.slope) <= c.max_abs_slope &&
         util::variance(quality) < c.max_variance;
}

TrajectoryKind sample_kind(const PopulationMix& mix, util::Rng& rng) {
  const double total = mix.rising + mix.declining + mix.fluctuating + mix.stable;
  double draw = rng.uniform01() * total;
  if ((draw -= mix.rising) < 0.0) return TrajectoryKind::kRising;
  if ((draw -= mix.declining) < 0.0) return TrajectoryKind::kDeclining;
  if ((draw -= mix.fluctuating) < 0.0) return TrajectoryKind::kFluctuating;
  return TrajectoryKind::kStable;
}

TrajectoryConfig sample_config(TrajectoryKind kind, int horizon, util::Rng& rng) {
  TrajectoryConfig config;
  config.kind = kind;
  config.horizon = horizon;
  switch (kind) {
    case TrajectoryKind::kRising:
      config.start_level = rng.uniform(2.0, 5.0);
      config.swing = rng.uniform(2.5, 4.5);
      break;
    case TrajectoryKind::kDeclining:
      config.start_level = rng.uniform(6.0, 9.0);
      config.swing = rng.uniform(2.5, 4.5);
      break;
    case TrajectoryKind::kFluctuating:
      config.start_level = rng.uniform(4.5, 6.5);
      config.swing = rng.uniform(1.5, 3.0);
      config.period = rng.uniform(120.0, 400.0);
      config.phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
      break;
    case TrajectoryKind::kStable:
      config.start_level = rng.uniform(3.5, 7.5);
      config.swing = 0.0;
      config.noise_stddev = 0.05;
      break;
  }
  return config;
}

}  // namespace melody::sim
