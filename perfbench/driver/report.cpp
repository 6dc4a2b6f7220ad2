#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    throw std::runtime_error("perfbench: getrusage failed");
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

constexpr std::size_t kDenseN = 64;
constexpr std::size_t kDenseReps = 384;
constexpr std::size_t kTableWords = std::size_t{1} << 18;  // 1 MiB
constexpr std::size_t kTableSteps = 1500000;
// Kernel times at the reference speed: medians on a quiet 2.1 GHz Xeon
// vCPU (a Release build with GCC).
constexpr double kDenseNominalS = 0.0105;
constexpr double kTableNominalS = 0.0110;

// Results are stored here so the kernels cannot be optimised away.
volatile double g_sink = 0.0;

}  // namespace

HostSpeed::HostSpeed()
    : a_(kDenseN * kDenseN),
      b_(kDenseN * kDenseN),
      c_(kDenseN * kDenseN),
      table_(kTableWords) {
  for (std::size_t i = 0; i < a_.size(); ++i) {
    a_[i] = static_cast<float>(i % 17) * 0.01f;
    b_[i] = static_cast<float>(i % 13) * 0.02f;
  }
  for (std::size_t i = 0; i < table_.size(); ++i) {
    table_[i] = static_cast<std::uint32_t>(i * 2654435761u);
  }
}

double HostSpeed::dense_s() {
  std::fill(c_.begin(), c_.end(), 0.0f);
  const double start = now_s();
  for (std::size_t rep = 0; rep < kDenseReps; ++rep) {
    for (std::size_t i = 0; i < kDenseN; ++i) {
      for (std::size_t k = 0; k < kDenseN; ++k) {
        const float x = a_[i * kDenseN + k];
        for (std::size_t j = 0; j < kDenseN; ++j) {
          c_[i * kDenseN + j] += x * b_[k * kDenseN + j];
        }
      }
    }
  }
  const double seconds = since(start);
  g_sink = c_[kDenseN + 1];
  return seconds;
}

double HostSpeed::table_s() {
  // Bring the table into cache first: the program's own memory use must
  // not change what the timed steps cost.
  std::uint64_t acc = 0;
  for (const std::uint32_t word : table_) {
    acc += word;
  }
  const double start = now_s();
  std::uint32_t x = static_cast<std::uint32_t>(acc) | 1u;
  for (std::size_t i = 0; i < kTableSteps; ++i) {
    x = x * 1664525u + 1013904223u;
    std::uint32_t& slot = table_[x >> 14];
    const std::uint32_t v = slot;
    acc = (v & 1u) != 0 ? acc + v : acc ^ (v >> 3);
    slot = v + x;
  }
  const double seconds = since(start);
  g_sink = static_cast<double>(acc);
  return seconds;
}

namespace {

double mean_from(const std::vector<double>& values, std::size_t first) {
  if (first >= values.size()) {
    throw std::invalid_argument("perfbench: mean of no samples");
  }
  double sum = 0.0;
  for (std::size_t i = first; i < values.size(); ++i) {
    sum += values[i];
  }
  return sum / static_cast<double>(values.size() - first);
}

}  // namespace

double HostSpeed::sample(std::size_t count) {
  const std::size_t first = samples_.size();
  for (std::size_t i = 0; i < count; ++i) {
    const double dense = dense_s();
    const double table = table_s();
    samples_.push_back(
        std::sqrt(kDenseNominalS / dense * (kTableNominalS / table)));
  }
  return mean_from(samples_, first);
}

PhaseClock::PhaseClock(HostSpeed& host, std::size_t edge_samples)
    : host_(host),
      edge_samples_(edge_samples),
      first_sample_(host.samples().size()) {
  (void)host_.sample(edge_samples_);
  start_s_ = now_s();
}

void PhaseClock::sample(std::size_t count) {
  const double start = now_s();
  (void)host_.sample(count);
  sampling_s_ += since(start);
}

PhaseClock::Result PhaseClock::stop() {
  const double seconds = since(start_s_) - sampling_s_;
  (void)host_.sample(edge_samples_);
  return {seconds, mean_from(host_.samples(), first_sample_)};
}

Tracer::Scope::Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
  if (!tracer_.enabled_) {
    return;
  }
  index_ = static_cast<std::int64_t>(tracer_.spans_.size());
  tracer_.spans_.push_back({name, now_s(), 0.0, tracer_.open_});
  tracer_.open_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) {
    return;
  }
  Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
  span.end_s = now_s();
  tracer_.open_ = span.parent;
}

double Tracer::total_s(const std::string& name) const {
  double total = 0.0;
  for (const double seconds : durations_s(name)) {
    total += seconds;
  }
  return total;
}

std::vector<double> Tracer::durations_s(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(span.end_s - span.start_s);
    }
  }
  return out;
}

double Tracer::children_s(const std::string& parent) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.parent >= 0 &&
        parent == spans_[static_cast<std::size_t>(span.parent)].name) {
      total += span.end_s - span.start_s;
    }
  }
  return total;
}

namespace {

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string number(double value) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("perfbench: non-finite measurement");
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string hex64(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

}  // namespace

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("perfbench: cannot write trace " + path);
  }
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":" << quoted(span.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << number((span.start_s - origin) * 1e6)
        << ",\"dur\":" << number((span.end_s - span.start_s) * 1e6)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent << "}}";
  }
  out << "\n]}\n";
  if (!out.flush()) {
    throw std::runtime_error("perfbench: cannot write trace " + path);
  }
}

Report::Report(std::string workload, std::uint64_t seed, bool traced)
    : workload_(std::move(workload)), seed_(seed), traced_(traced) {}

void Report::samples(const std::string& name, std::vector<double> values) {
  entries_[name] = {"samples", std::move(values)};
}

void Report::value(const std::string& name, double value) {
  entries_[name] = {"value", {value}};
}

void Report::dist(const std::string& name, std::vector<double> values) {
  entries_[name] = {"dist", std::move(values)};
}

void Report::digest(const std::string& label, std::uint64_t digest) {
  digests_[label] = hex64(digest);
}

void Report::promise(const std::string& name, bool ok,
                     const std::string& detail) {
  promises_.push_back({name, ok, detail});
}

void Report::operations(std::uint64_t attempted, std::uint64_t incomplete) {
  attempted_ = attempted;
  incomplete_ = incomplete;
}

void Report::print() const {
  std::string out = "{\"workload\":" + quoted(workload_);
  out += ",\"seed\":" + std::to_string(seed_);
  out += ",\"traced\":";
  out += traced_ ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted_);
  out += ",\"incomplete\":" + std::to_string(incomplete_);
  out += ",\"digests\":{";
  const char* sep = "";
  for (const auto& [label, digest] : digests_) {
    out += sep;
    out += quoted(label) + ":" + quoted(digest);
    sep = ",";
  }
  out += "},\"promises\":[";
  sep = "";
  for (const Promise& p : promises_) {
    out += sep;
    out += "{\"name\":" + quoted(p.name) + ",\"ok\":";
    out += p.ok ? "true" : "false";
    out += ",\"detail\":" + quoted(p.detail) + "}";
    sep = ",";
  }
  out += "],\"entries\":{";
  sep = "";
  for (const auto& [name, entry] : entries_) {
    out += sep;
    out += quoted(name) + ":{\"kind\":" + quoted(entry.kind) + ",\"values\":[";
    const char* vsep = "";
    for (const double v : entry.values) {
      out += vsep;
      out += number(v);
      vsep = ",";
    }
    out += "]}";
    sep = ",";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
