#include "power/supply.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <numbers>
#include <sstream>
#include <stdexcept>

namespace iprune::power {

std::string ConstantSupply::describe() const {
  return "constant " + std::to_string(watts_ * 1e3) + " mW";
}

TraceSupply::TraceSupply(std::vector<double> samples_w,
                         double sample_period_s)
    : samples_w_(std::move(samples_w)), period_s_(sample_period_s) {
  if (samples_w_.empty() || period_s_ <= 0.0) {
    throw std::invalid_argument("TraceSupply: need samples and period > 0");
  }
  for (const double w : samples_w_) {
    // NaN compares false against everything, so test finiteness first.
    if (!std::isfinite(w)) {
      throw std::invalid_argument("TraceSupply: non-finite power sample");
    }
    if (w < 0.0) {
      throw std::invalid_argument("TraceSupply: negative power sample");
    }
  }
}

TraceSupply TraceSupply::from_csv(const std::string& path,
                                  double sample_period_s) {
  std::ifstream file(path);
  if (!file) {
    throw std::runtime_error("TraceSupply::from_csv: cannot open " + path);
  }
  std::vector<double> samples;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(file, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    // strtod (unlike stream extraction) also parses "nan"/"inf" spellings,
    // so corrupt samples reach the finiteness check below instead of being
    // silently skipped as unparseable.
    const char* begin = line.c_str();
    char* parse_end = nullptr;
    const double mw = std::strtod(begin, &parse_end);
    const auto blank = [](const char* s) {
      while (*s != '\0') {
        if (std::isspace(static_cast<unsigned char>(*s)) == 0) {
          return false;
        }
        ++s;
      }
      return true;
    };
    if (parse_end == begin) {
      if (blank(begin)) {
        continue;  // empty or comment-only line
      }
      throw std::runtime_error("TraceSupply::from_csv: malformed sample at "
                               "line " +
                               std::to_string(line_no) + " of " + path);
    }
    if (!blank(parse_end)) {
      throw std::runtime_error(
          "TraceSupply::from_csv: trailing garbage after sample at line " +
          std::to_string(line_no) + " of " + path);
    }
    if (!std::isfinite(mw)) {
      throw std::runtime_error("TraceSupply::from_csv: non-finite power "
                               "sample at line " +
                               std::to_string(line_no) + " of " + path);
    }
    if (mw < 0.0) {
      throw std::runtime_error("TraceSupply::from_csv: negative power "
                               "sample at line " +
                               std::to_string(line_no) + " of " + path);
    }
    samples.push_back(mw * 1e-3);
  }
  if (samples.empty()) {
    throw std::runtime_error("TraceSupply::from_csv: no samples in " + path);
  }
  return TraceSupply(std::move(samples), sample_period_s);
}

double TraceSupply::power_w(double time_s) const {
  const double cycle =
      period_s_ * static_cast<double>(samples_w_.size());
  double t = std::fmod(time_s, cycle);
  if (t < 0.0) {
    t += cycle;
  }
  const auto index = static_cast<std::size_t>(t / period_s_);
  return samples_w_[std::min(index, samples_w_.size() - 1)];
}

SupplySegment TraceSupply::segment(double time_s) const {
  const double cycle = period_s_ * static_cast<double>(samples_w_.size());
  double t = std::fmod(time_s, cycle);
  if (t < 0.0) {
    t += cycle;
  }
  const auto index =
      std::min(static_cast<std::size_t>(t / period_s_),
               samples_w_.size() - 1);
  // End of the current sample in absolute time. fmod and the division
  // above round, so hold back a guard band: a step starting inside it
  // queries power_w() afresh instead of trusting the cached power, which
  // keeps the cached path bit-identical to per-step power_w() calls.
  const double guard = period_s_ * 1e-9;
  const double sample_end =
      time_s + (static_cast<double>(index + 1) * period_s_ - t) - guard;
  if (sample_end <= time_s) {
    return {samples_w_[index], time_s};  // inside the guard band: no cache
  }
  return {samples_w_[index], sample_end};
}

std::string TraceSupply::describe() const {
  return "trace (" + std::to_string(samples_w_.size()) + " samples @ " +
         std::to_string(period_s_) + " s)";
}

namespace {

void require_finite_positive(double value, const char* what,
                             const char* who) {
  if (!std::isfinite(value) || value <= 0.0) {
    throw std::invalid_argument(std::string(who) + ": " + what +
                                " must be finite and > 0");
  }
}

void require_fraction(double value, const char* what, const char* who) {
  if (!std::isfinite(value) || value <= 0.0 || value > 1.0) {
    throw std::invalid_argument(std::string(who) + ": " + what +
                                " must be in (0, 1]");
  }
}

std::string format_mw(double watts) {
  return std::to_string(watts * 1e3) + " mW";
}

}  // namespace

PhasedSupply::PhasedSupply(std::vector<Phase> phases)
    : phases_(std::move(phases)) {
  if (phases_.empty()) {
    throw std::invalid_argument("PhasedSupply: need at least one phase");
  }
  ends_.reserve(phases_.size());
  for (const Phase& phase : phases_) {
    if (!std::isfinite(phase.power_w) || phase.power_w < 0.0) {
      throw std::invalid_argument(
          "PhasedSupply: phase power must be finite and >= 0");
    }
    if (!std::isfinite(phase.duration_s) || phase.duration_s <= 0.0) {
      throw std::invalid_argument(
          "PhasedSupply: phase duration must be finite and > 0");
    }
    cycle_s_ += phase.duration_s;
    ends_.push_back(cycle_s_);
  }
}

std::size_t PhasedSupply::phase_index(double in_cycle_s) const {
  // First phase whose cumulative end lies strictly beyond the query
  // point; fmod rounding can land exactly on cycle_s_, which folds into
  // the last phase.
  const auto it = std::upper_bound(ends_.begin(), ends_.end(), in_cycle_s);
  if (it == ends_.end()) {
    return phases_.size() - 1;
  }
  return static_cast<std::size_t>(it - ends_.begin());
}

double PhasedSupply::power_w(double time_s) const {
  double t = std::fmod(time_s, cycle_s_);
  if (t < 0.0) {
    t += cycle_s_;
  }
  return phases_[phase_index(t)].power_w;
}

SupplySegment PhasedSupply::segment(double time_s) const {
  double t = std::fmod(time_s, cycle_s_);
  if (t < 0.0) {
    t += cycle_s_;
  }
  const std::size_t index = phase_index(t);
  // Hold back a guard band before the phase boundary: fmod and the
  // cumulative sums round, so a step starting inside the band queries
  // power_w() afresh instead of trusting the cached power — the same
  // pattern (and bit-exactness argument) as TraceSupply::segment.
  const double guard = cycle_s_ * 1e-9;
  const double phase_end = time_s + (ends_[index] - t) - guard;
  if (phase_end <= time_s) {
    return {phases_[index].power_w, time_s};  // in the guard band: no cache
  }
  return {phases_[index].power_w, phase_end};
}

std::string PhasedSupply::describe() const {
  return "phased (" + std::to_string(phases_.size()) + " phases @ " +
         std::to_string(cycle_s_) + " s cycle)";
}

RfSupply::RfSupply(double burst_w, double period_s, double duty)
    : PhasedSupply([&] {
        require_finite_positive(burst_w, "burst_w", "RfSupply");
        require_finite_positive(period_s, "period_s", "RfSupply");
        require_fraction(duty, "duty", "RfSupply");
        std::vector<Phase> phases;
        phases.push_back({burst_w, period_s * duty});
        if (duty < 1.0) {
          phases.push_back({0.0, period_s - period_s * duty});
        }
        return phases;
      }()),
      burst_w_(burst_w),
      period_s_(period_s),
      duty_(duty) {}

std::string RfSupply::describe() const {
  return "rf " + format_mw(burst_w_) + " bursts, duty " +
         std::to_string(duty_) + " @ " + std::to_string(period_s_) + " s";
}

KineticSupply::KineticSupply(double impulse_w, double period_s,
                             std::size_t steps, double decay)
    : PhasedSupply([&] {
        require_finite_positive(impulse_w, "impulse_w", "KineticSupply");
        require_finite_positive(period_s, "period_s", "KineticSupply");
        require_fraction(decay, "decay", "KineticSupply");
        if (steps == 0) {
          throw std::invalid_argument("KineticSupply: steps must be >= 1");
        }
        // Impulse decays over the first half-period; second half is quiet.
        const double slot_s =
            period_s * 0.5 / static_cast<double>(steps);
        std::vector<Phase> phases;
        double level = impulse_w;
        for (std::size_t k = 0; k < steps; ++k) {
          phases.push_back({level, slot_s});
          level *= decay;
        }
        phases.push_back({0.0, period_s * 0.5});
        return phases;
      }()),
      impulse_w_(impulse_w),
      period_s_(period_s),
      steps_(steps),
      decay_(decay) {}

std::string KineticSupply::describe() const {
  return "kinetic " + format_mw(impulse_w_) + " impulses, " +
         std::to_string(steps_) + " steps, decay " + std::to_string(decay_) +
         " @ " + std::to_string(period_s_) + " s";
}

IndoorSolarSupply::IndoorSolarSupply(double lit_w, double dim_w,
                                     double period_s, double duty)
    : PhasedSupply([&] {
        require_finite_positive(lit_w, "lit_w", "IndoorSolarSupply");
        require_finite_positive(period_s, "period_s", "IndoorSolarSupply");
        require_fraction(duty, "duty", "IndoorSolarSupply");
        if (!std::isfinite(dim_w) || dim_w < 0.0) {
          throw std::invalid_argument(
              "IndoorSolarSupply: dim_w must be finite and >= 0");
        }
        if (dim_w > lit_w) {
          throw std::invalid_argument(
              "IndoorSolarSupply: dim_w must be <= lit_w");
        }
        std::vector<Phase> phases;
        phases.push_back({lit_w, period_s * duty});
        if (duty < 1.0) {
          phases.push_back({dim_w, period_s - period_s * duty});
        }
        return phases;
      }()),
      lit_w_(lit_w),
      dim_w_(dim_w),
      period_s_(period_s),
      duty_(duty) {}

std::string IndoorSolarSupply::describe() const {
  return "indoor-solar " + format_mw(lit_w_) + " lit / " + format_mw(dim_w_) +
         " dim, duty " + std::to_string(duty_) + " @ " +
         std::to_string(period_s_) + " s";
}

DiurnalSupply::DiurnalSupply(double peak_w, double day_s, double daylight)
    : PhasedSupply([&] {
        require_finite_positive(peak_w, "peak_w", "DiurnalSupply");
        require_finite_positive(day_s, "day_s", "DiurnalSupply");
        require_fraction(daylight, "daylight", "DiurnalSupply");
        const double slot_s =
            day_s * daylight / static_cast<double>(kSlots);
        std::vector<Phase> phases;
        phases.reserve(kSlots + 1);
        for (std::size_t k = 0; k < kSlots; ++k) {
          const double s = std::sin(std::numbers::pi *
                                    (static_cast<double>(k) + 0.5) /
                                    static_cast<double>(kSlots));
          phases.push_back({peak_w * s * s, slot_s});
        }
        if (daylight < 1.0) {
          phases.push_back({0.0, day_s - day_s * daylight});
        }
        return phases;
      }()),
      peak_w_(peak_w),
      day_s_(day_s),
      daylight_(daylight) {}

std::string DiurnalSupply::describe() const {
  return "diurnal peak " + format_mw(peak_w_) + ", daylight " +
         std::to_string(daylight_) + " @ " + std::to_string(day_s_) +
         " s day";
}

std::unique_ptr<PowerSupply> SupplyPresets::continuous() {
  return std::make_unique<ConstantSupply>(kContinuousW);
}

std::unique_ptr<PowerSupply> SupplyPresets::strong() {
  return std::make_unique<ConstantSupply>(kStrongW);
}

std::unique_ptr<PowerSupply> SupplyPresets::weak() {
  return std::make_unique<ConstantSupply>(kWeakW);
}

std::unique_ptr<PowerSupply> SupplyPresets::solar_day(double peak_w,
                                                      double day_length_s) {
  constexpr std::size_t kSamples = 96;
  std::vector<double> samples(kSamples);
  for (std::size_t i = 0; i < kSamples; ++i) {
    // Half-sine day curve with zero "night" floor.
    const double phase =
        std::numbers::pi * static_cast<double>(i) / (kSamples - 1);
    samples[i] = peak_w * std::max(0.0, std::sin(phase));
  }
  return std::make_unique<TraceSupply>(std::move(samples),
                                       day_length_s / kSamples);
}

}  // namespace iprune::power
