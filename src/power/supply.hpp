#pragma once
// Harvested-power sources. The paper drives a BQ25504 from a programmable
// supply at three strengths (continuous 1.65 W, strong 8 mW, weak 4 mW);
// we model those as constant sources plus a trace-driven source for the
// solar-profile example.

#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace iprune::power {

/// A window of constant harvest: power_w(t) == power_w for every t in
/// [query time, end_s). PowerManager::recharge uses segments to skip the
/// per-step virtual power_w() call: within a segment the cached value is
/// exact, so the integrated harvest stays bit-identical to per-step
/// queries. A zero-length segment (end_s == query time) means "no
/// constant window known" and forces a fresh query at the next step.
struct SupplySegment {
  double power_w = 0.0;
  double end_s = 0.0;
};

class PowerSupply {
 public:
  virtual ~PowerSupply() = default;
  /// Instantaneous harvestable power (watts) at simulated time t (seconds).
  [[nodiscard]] virtual double power_w(double time_s) const = 0;

  /// Constant-power window starting at `time_s`. The default — a
  /// zero-length segment — is always correct and merely disables the
  /// cached recharge stepping for supplies that do not override it.
  [[nodiscard]] virtual SupplySegment segment(double time_s) const {
    return {power_w(time_s), time_s};
  }

  [[nodiscard]] virtual std::string describe() const = 0;
};

class ConstantSupply final : public PowerSupply {
 public:
  explicit ConstantSupply(double watts) : watts_(watts) {}
  [[nodiscard]] double power_w(double) const override { return watts_; }
  [[nodiscard]] SupplySegment segment(double) const override {
    return {watts_, std::numeric_limits<double>::infinity()};
  }
  [[nodiscard]] std::string describe() const override;

 private:
  double watts_;
};

/// Piecewise-constant trace sampled at a fixed period; repeats cyclically.
/// Used to emulate time-varying solar harvest.
class TraceSupply final : public PowerSupply {
 public:
  TraceSupply(std::vector<double> samples_w, double sample_period_s);

  /// Load a trace from a CSV/text file: one sample per line, power in
  /// milliwatts; '#' starts a comment. Throws std::runtime_error when the
  /// file is missing or contains no valid samples.
  static TraceSupply from_csv(const std::string& path,
                              double sample_period_s);
  [[nodiscard]] double power_w(double time_s) const override;
  [[nodiscard]] SupplySegment segment(double time_s) const override;
  [[nodiscard]] std::string describe() const override;

 private:
  std::vector<double> samples_w_;
  double period_s_;
};

/// Cyclic piecewise-constant supply built from explicit phases. The
/// shared implementation behind the analytic harvest models below: each
/// phase holds one power level for a duration, the whole list repeats.
/// power_w() and segment() use the same phase lookup, so recharge's
/// cached segment power is bit-identical to per-step power_w() calls
/// (segment ends hold back a tiny guard band against fmod rounding, the
/// same trick TraceSupply uses).
class PhasedSupply : public PowerSupply {
 public:
  struct Phase {
    double power_w = 0.0;
    double duration_s = 0.0;
  };

  /// Phases with non-positive durations are rejected; at least one phase
  /// is required and every power level must be finite and >= 0.
  explicit PhasedSupply(std::vector<Phase> phases);

  [[nodiscard]] double power_w(double time_s) const override;
  [[nodiscard]] SupplySegment segment(double time_s) const override;
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] double cycle_s() const { return cycle_s_; }
  [[nodiscard]] const std::vector<Phase>& phases() const { return phases_; }

 private:
  [[nodiscard]] std::size_t phase_index(double in_cycle_s) const;

  std::vector<Phase> phases_;
  std::vector<double> ends_;  // cumulative phase end times within a cycle
  double cycle_s_ = 0.0;
};

/// RF energy harvest: a dedicated transmitter delivers bursts of
/// rectified power with period `period_s`, active for the leading `duty`
/// fraction of every period and silent otherwise (Gobieski et al.'s
/// RF-powered deployment regime):
///   p(t) = burst_w   if fmod(t, T) <  duty * T
///        = 0         otherwise
class RfSupply final : public PhasedSupply {
 public:
  RfSupply(double burst_w, double period_s, double duty);
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] double burst_w() const { return burst_w_; }
  [[nodiscard]] double period_s() const { return period_s_; }
  [[nodiscard]] double duty() const { return duty_; }

 private:
  double burst_w_;
  double period_s_;
  double duty_;
};

/// Kinetic (piezo/electromagnetic) harvest: a periodic impulse — e.g. a
/// footfall every `period_s` — whose rectified output decays geometrically
/// over `steps` equal slots spanning the first half of the period:
///   p_k = impulse_w * decay^k,  k in [0, steps),  slot width T/(2*steps)
/// with the second half of the period quiet (the Islam et al. kinetic
/// profile, discretized so segment() is exact).
class KineticSupply final : public PhasedSupply {
 public:
  KineticSupply(double impulse_w, double period_s, std::size_t steps,
                double decay);
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] double impulse_w() const { return impulse_w_; }
  [[nodiscard]] double period_s() const { return period_s_; }
  [[nodiscard]] std::size_t steps() const { return steps_; }
  [[nodiscard]] double decay() const { return decay_; }

 private:
  double impulse_w_;
  double period_s_;
  std::size_t steps_;
  double decay_;
};

/// Indoor photovoltaic harvest under scheduled office lighting: `lit_w`
/// for the leading `duty` fraction of every period (lights on), a dim
/// floor `dim_w` otherwise (emergency lighting / ambient):
///   p(t) = lit_w  if fmod(t, T) < duty * T,  else dim_w
class IndoorSolarSupply final : public PhasedSupply {
 public:
  IndoorSolarSupply(double lit_w, double dim_w, double period_s, double duty);
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] double lit_w() const { return lit_w_; }
  [[nodiscard]] double dim_w() const { return dim_w_; }
  [[nodiscard]] double period_s() const { return period_s_; }
  [[nodiscard]] double duty() const { return duty_; }

 private:
  double lit_w_;
  double dim_w_;
  double period_s_;
  double duty_;
};

/// Outdoor diurnal harvest: a day of length `day_s` whose leading
/// `daylight` fraction carries a sin^2 irradiance arc quantized into
/// kSlots piecewise-constant slots (so segment() stays exact), followed
/// by a zero-power night:
///   p_k = peak_w * sin^2(pi * (k + 0.5) / kSlots),  k in [0, kSlots)
class DiurnalSupply final : public PhasedSupply {
 public:
  static constexpr std::size_t kSlots = 64;

  DiurnalSupply(double peak_w, double day_s, double daylight);
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] double peak_w() const { return peak_w_; }
  [[nodiscard]] double day_s() const { return day_s_; }
  [[nodiscard]] double daylight() const { return daylight_; }

 private:
  double peak_w_;
  double day_s_;
  double daylight_;
};

/// The paper's three evaluation conditions.
struct SupplyPresets {
  static constexpr double kContinuousW = 1.65;    // 3.3 V x 0.5 A
  static constexpr double kStrongW = 8.0e-3;      // 1 V x 8 mA
  static constexpr double kWeakW = 4.0e-3;        // 1 V x 4 mA

  static std::unique_ptr<PowerSupply> continuous();
  static std::unique_ptr<PowerSupply> strong();
  static std::unique_ptr<PowerSupply> weak();
  /// Day-curve solar profile peaking at `peak_w`.
  static std::unique_ptr<PowerSupply> solar_day(double peak_w,
                                                double day_length_s);
};

}  // namespace iprune::power
