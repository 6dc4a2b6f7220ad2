#pragma once
// MetricsGateway: pluggable export of fleet telemetry.
//
// The orchestrator streams every DeviceResult (in device-index order,
// after its batch completes) and finally the aggregated FleetResult into
// a gateway. Gateways only observe — they cannot perturb the simulation —
// so any sink combination yields the same FleetResult, and the gateway
// outputs themselves are deterministic byte-for-byte for a fixed spec
// (the CI determinism check compares them across lane counts).
//
// Sinks:
//   NullGateway        discard everything (the default)
//   CsvGateway         fleet_devices.csv (row per device) +
//                      fleet_summary.csv (fleet + per-group rows)
//   PrometheusGateway  fleet_metrics.prom, Prometheus text exposition
//                      format v0.0.4 — drop it in a node_exporter textfile
//                      collector directory to scrape a fleet run
//   MultiGateway       fan out to several sinks
//
// make_gateway() builds the MultiGateway a `--gateway KIND` flag names.

#include <memory>
#include <string>
#include <vector>

#include "fleet/device_sim.hpp"
#include "fleet/result.hpp"

namespace iprune::fleet {

class MetricsGateway {
 public:
  virtual ~MetricsGateway() = default;

  /// One finished device, streamed in device-index order.
  virtual void on_device(const DeviceResult& result) = 0;
  /// The final fleet aggregate; called exactly once, after every
  /// on_device. File-backed gateways write their outputs here.
  virtual void on_fleet(const FleetResult& result) = 0;
  [[nodiscard]] virtual std::string describe() const = 0;
};

class NullGateway final : public MetricsGateway {
 public:
  void on_device(const DeviceResult&) override {}
  void on_fleet(const FleetResult&) override {}
  [[nodiscard]] std::string describe() const override { return "null"; }
};

/// Writes `<dir>/fleet_devices.csv` and `<dir>/fleet_summary.csv`.
/// Doubles are emitted as shortest-round-trip (%.17g) so equal results
/// produce byte-equal files.
class CsvGateway final : public MetricsGateway {
 public:
  explicit CsvGateway(std::string dir);

  void on_device(const DeviceResult& result) override;
  /// Throws std::runtime_error if either file cannot be written.
  void on_fleet(const FleetResult& result) override;
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] std::string devices_path() const;
  [[nodiscard]] std::string summary_path() const;

 private:
  std::string dir_;
  std::vector<std::vector<std::string>> device_rows_;
};

/// Writes `<path>` in Prometheus text exposition format: fleet gauges and
/// counters (device outcomes, outage totals, harvested/consumed/wasted
/// joules), per-group outcome counters, and the end-to-end inference
/// latency histogram with cumulative `le` buckets.
class PrometheusGateway final : public MetricsGateway {
 public:
  explicit PrometheusGateway(std::string path);

  void on_device(const DeviceResult&) override {}
  /// Throws std::runtime_error if the file cannot be written.
  void on_fleet(const FleetResult& result) override;
  [[nodiscard]] std::string describe() const override;

  /// The exposition text for one FleetResult (what on_fleet writes).
  static std::string render(const FleetResult& result);

 private:
  std::string path_;
};

/// Fans every callback out to each child, in order. Non-owning children
/// must outlive the gateway; owned children may be added too.
class MultiGateway final : public MetricsGateway {
 public:
  void add(MetricsGateway* gateway);
  void add_owned(std::unique_ptr<MetricsGateway> gateway);

  void on_device(const DeviceResult& result) override;
  void on_fleet(const FleetResult& result) override;
  [[nodiscard]] std::string describe() const override;

 private:
  std::vector<MetricsGateway*> children_;
  std::vector<std::unique_ptr<MetricsGateway>> owned_;
};

/// The gateway `kind` names: "null" (no children), "csv" (CsvGateway over
/// `dir`), "prom" (PrometheusGateway at `<dir>/fleet_metrics.prom`) or
/// "all" (both, csv first). Throws std::invalid_argument
/// ("unknown gateway '<kind>'") for any other kind.
[[nodiscard]] MultiGateway make_gateway(const std::string& kind,
                                        const std::string& dir);

}  // namespace iprune::fleet
