#pragma once
// Measurement plumbing shared by the perfbench workloads: a host clock,
// an in-memory span recorder written out as a Perfetto-readable trace,
// and the raw report the driver prints for run.py to summarize.
//
// The driver reports raw samples, not statistics: run.py owns the
// summaries (medians, tails, counts) and the pass/fail accounting, so one
// tested implementation serves every workload.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Host wall-clock (steady_clock) in seconds since an arbitrary origin.
double now_s();

/// Seconds elapsed since `start` (a now_s() reading).
inline double since(double start) { return now_s() - start; }

/// Process peak resident set size in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// How fast the host runs now, against a fixed reference speed.
///
/// A shared machine's speed drifts by 1.3-2x over seconds to minutes with
/// its neighbours' load, and process CPU time drifts with it (the slowdown
/// is contention inside the core, not descheduling). Each sample times two
/// fixed kernels that are compiled with the benchmark and share no code
/// with the program: dense float multiply-adds (as in nn) and dependent
/// random reads and writes over a 1 MiB table (as in the simulators). A
/// sample is the geometric mean of nominal / measured time over the two,
/// so 1 is the reference speed and 0.5 a host running at half of it.
///
/// The workloads report each timed phase's host time with the host speed
/// sampled around it; run.py multiplies them, which gives seconds at the
/// reference speed.
class HostSpeed {
 public:
  HostSpeed();

  /// Take `count` samples, record them and return their mean.
  double sample(std::size_t count = 1);

  /// Every sample taken, in order.
  [[nodiscard]] const std::vector<double>& samples() const {
    return samples_;
  }

 private:
  [[nodiscard]] double dense_s();
  [[nodiscard]] double table_s();

  std::vector<float> a_;
  std::vector<float> b_;
  std::vector<float> c_;
  std::vector<std::uint32_t> table_;
  std::vector<double> samples_;
};

/// Host seconds of one phase with the host speed sampled before, inside
/// and after it. Where the program offers a hook (an epoch callback, an
/// allocator decorator) a long phase calls sample() from inside, so drift
/// during the phase is seen, not only at its ends; the time those samples
/// take is left out of the phase.
///
/// The phase's speed is the mean of its samples. The samples sit at fixed
/// steps of work (epochs, loop iterations), and over a few seconds the
/// host often switches between two speeds; a median would jump between
/// them from run to run, while the mean follows the share of time spent
/// at each. Phases must not overlap.
class PhaseClock {
 public:
  /// Samples the host speed `edge_samples` times, then starts the clock.
  PhaseClock(HostSpeed& host, std::size_t edge_samples);

  /// `count` host-speed samples inside the phase.
  void sample(std::size_t count = 1);

  struct Result {
    double seconds;  // host seconds of the phase, samples inside excluded
    double speed;    // mean of every sample taken for the phase
  };
  /// Ends the phase and samples the host speed `edge_samples` times.
  Result stop();

 private:
  HostSpeed& host_;
  std::size_t edge_samples_;
  std::size_t first_sample_;
  double start_s_ = 0.0;
  double sampling_s_ = 0.0;
};

/// Records named host spans with their parents while enabled; a disabled
/// recorder never reads the clock. Spans stay in memory until write().
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int64_t index_ = -1;
  };

  /// Duration of every recorded span named `name`, summed.
  [[nodiscard]] double total_s(const std::string& name) const;
  /// Duration of each recorded span named `name`, in recording order.
  [[nodiscard]] std::vector<double> durations_s(const std::string& name) const;
  /// Summed duration of the direct children of the spans named `parent`.
  [[nodiscard]] double children_s(const std::string& parent) const;

  /// Write a Chrome trace-event JSON file ("X" events, µs timestamps;
  /// args carry the span id and parent id). Throws on I/O failure.
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_s;
    double end_s;
    std::int64_t parent;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::int64_t open_ = -1;
};

/// The driver's raw result. Each measurement is a list of samples (run.py
/// takes the median), a distribution (median, tail and count), or one
/// exact value.
class Report {
 public:
  Report(std::string workload, std::uint64_t seed, bool traced);

  void samples(const std::string& name, std::vector<double> values);
  void value(const std::string& name, double value);
  void dist(const std::string& name, std::vector<double> values);

  /// Output digest under a label; run.py requires every label to agree
  /// and the agreed digest to match the pin for (workload, seed), if any.
  void digest(const std::string& label, std::uint64_t digest);
  /// A seed-independent promise of the code; a false one fails the run.
  void promise(const std::string& name, bool ok, const std::string& detail);
  /// Operations attempted, and those that did not complete cleanly.
  void operations(std::uint64_t attempted, std::uint64_t incomplete);

  /// Print the report as one JSON line on stdout.
  void print() const;

 private:
  struct Entry {
    std::string kind;  // "samples" | "dist" | "value"
    std::vector<double> values;
  };
  struct Promise {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::string workload_;
  std::uint64_t seed_;
  bool traced_;
  std::map<std::string, Entry> entries_;
  std::map<std::string, std::string> digests_;
  std::vector<Promise> promises_;
  std::uint64_t attempted_ = 0;
  std::uint64_t incomplete_ = 0;
};

struct Options {
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace path (traced runs)
};

/// Workload entry points (prune_har.cpp, fleets.cpp).
void run_prune_har(const Options& options, Report& report);
void run_fleet_harvest(const Options& options, Report& report);
void run_fleet_cohort(const Options& options, Report& report);

}  // namespace perfbench
