#include "fleet/gateway.hpp"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "util/atomic_write.hpp"
#include "util/csv.hpp"

namespace iprune::fleet {

namespace {

std::string format_g17(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string format_hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

std::string status_of(const DeviceResult& r) {
  if (r.failed) {
    return "failed";
  }
  if (r.completed) {
    return "completed";
  }
  if (r.deadline_missed) {
    return "deadline_missed";
  }
  return "incomplete";
}

std::vector<std::string> summary_row(const std::string& scope,
                                     const GroupStats& g,
                                     const std::string& checksum) {
  return {scope,
          g.name,
          std::to_string(g.devices),
          std::to_string(g.completed),
          std::to_string(g.deadline_missed),
          std::to_string(g.failed),
          std::to_string(g.compromised),
          std::to_string(g.inferences),
          std::to_string(g.power_failures),
          std::to_string(g.injected_outages),
          std::to_string(g.events),
          format_g17(g.harvested_j),
          format_g17(g.consumed_j),
          format_g17(g.wasted_j),
          format_g17(g.on_s),
          format_g17(g.off_s),
          format_g17(g.max_sim_s),
          format_g17(g.latency_us.quantile(0.5)),
          format_g17(g.latency_us.quantile(0.95)),
          format_g17(g.latency_us.max()),
          checksum};
}

}  // namespace

CsvGateway::CsvGateway(std::string dir) : dir_(std::move(dir)) {}

std::string CsvGateway::devices_path() const {
  return dir_ + "/fleet_devices.csv";
}

std::string CsvGateway::summary_path() const {
  return dir_ + "/fleet_summary.csv";
}

void CsvGateway::on_device(const DeviceResult& r) {
  device_rows_.push_back({std::to_string(r.index),
                          r.group,
                          status_of(r),
                          integrity_verdict_name(r.verdict),
                          r.error,
                          std::to_string(r.inferences_done),
                          format_g17(r.sim_s),
                          format_g17(r.on_s),
                          format_g17(r.off_s),
                          format_g17(r.consumed_j),
                          format_g17(r.harvested_j),
                          format_g17(r.wasted_j),
                          std::to_string(r.power_failures),
                          std::to_string(r.injected_outages),
                          std::to_string(r.events),
                          std::to_string(r.nvm_bytes_read),
                          std::to_string(r.nvm_bytes_written),
                          std::to_string(r.macs),
                          std::to_string(r.reexecuted_jobs),
                          std::to_string(r.integrity_rollbacks),
                          format_g17(r.latency_us.quantile(0.5)),
                          format_g17(r.latency_us.max()),
                          format_hex(r.logits_checksum)});
}

void CsvGateway::on_fleet(const FleetResult& result) {
  std::filesystem::create_directories(dir_);

  util::CsvWriter devices({"index", "group", "status", "verdict", "error",
                           "inferences",
                           "sim_s", "on_s", "off_s", "consumed_j",
                           "harvested_j", "wasted_j", "power_failures",
                           "injected_outages", "events", "nvm_bytes_read",
                           "nvm_bytes_written", "macs", "reexecuted_jobs",
                           "integrity_rollbacks", "latency_p50_us",
                           "latency_max_us", "logits_checksum"});
  for (const auto& row : device_rows_) {
    devices.row(row);
  }
  if (!devices.save(devices_path())) {
    throw std::runtime_error("fleet: cannot write " + devices_path());
  }

  util::CsvWriter summary({"scope", "name", "devices", "completed",
                           "deadline_missed", "failed", "compromised",
                           "inferences",
                           "power_failures", "injected_outages", "events",
                           "harvested_j", "consumed_j", "wasted_j", "on_s",
                           "off_s", "max_sim_s", "latency_p50_us",
                           "latency_p95_us", "latency_max_us", "checksum"});
  summary.row(summary_row("fleet", result.total,
                          format_hex(result.checksum)));
  for (const GroupStats& group : result.groups) {
    summary.row(summary_row("group", group, ""));
  }
  if (!summary.save(summary_path())) {
    throw std::runtime_error("fleet: cannot write " + summary_path());
  }
}

std::string CsvGateway::describe() const { return "csv:" + dir_; }

PrometheusGateway::PrometheusGateway(std::string path)
    : path_(std::move(path)) {}

std::string PrometheusGateway::render(const FleetResult& result) {
  std::string out;
  out.reserve(8192);
  const auto gauge = [&out](const char* name, const char* help,
                            const std::string& value) {
    out += "# HELP ";
    out += name;
    out += ' ';
    out += help;
    out += "\n# TYPE ";
    out += name;
    out += " gauge\n";
    out += name;
    out += ' ';
    out += value;
    out += '\n';
  };
  const GroupStats& t = result.total;
  gauge("iprune_fleet_devices", "Devices simulated.",
        std::to_string(t.devices));
  gauge("iprune_fleet_devices_completed",
        "Devices that finished every requested inference.",
        std::to_string(t.completed));
  gauge("iprune_fleet_devices_deadline_missed",
        "Devices that ran out of simulated time.",
        std::to_string(t.deadline_missed));
  gauge("iprune_fleet_devices_failed",
        "Devices ended by an engine/integrity/watchdog error.",
        std::to_string(t.failed));
  gauge("iprune_fleet_devices_compromised",
        "Devices whose NVM integrity verdict is compromised.",
        std::to_string(t.compromised));
  gauge("iprune_fleet_inferences_total", "Completed inferences.",
        std::to_string(t.inferences));
  gauge("iprune_fleet_outages_total",
        "Power failures (organic + injected).",
        std::to_string(t.power_failures));
  gauge("iprune_fleet_injected_outages_total",
        "Power failures forced by fault schedules.",
        std::to_string(t.injected_outages));
  gauge("iprune_fleet_device_events_total",
        "Chargeable device events (simulated device steps).",
        std::to_string(t.events));
  gauge("iprune_fleet_harvested_joules", "Energy harvested.",
        format_g17(t.harvested_j));
  gauge("iprune_fleet_consumed_joules", "Energy consumed.",
        format_g17(t.consumed_j));
  gauge("iprune_fleet_wasted_joules",
        "Harvest wasted (buffer overflow, recharge overshoot, injected "
        "outages).",
        format_g17(t.wasted_j));
  gauge("iprune_fleet_on_seconds", "Summed device on-time.",
        format_g17(t.on_s));
  gauge("iprune_fleet_off_seconds", "Summed device off-time.",
        format_g17(t.off_s));

  const auto per_group = [&out, &result](const char* name, const char* help,
                                         auto field) {
    out += "# HELP ";
    out += name;
    out += ' ';
    out += help;
    out += "\n# TYPE ";
    out += name;
    out += " gauge\n";
    for (const GroupStats& group : result.groups) {
      out += name;
      out += "{group=\"";
      out += group.name;
      out += "\"} ";
      out += std::to_string(field(group));
      out += '\n';
    }
  };
  per_group("iprune_fleet_group_devices", "Devices per group.",
            [](const GroupStats& g) { return g.devices; });
  per_group("iprune_fleet_group_completed", "Completed devices per group.",
            [](const GroupStats& g) { return g.completed; });
  per_group("iprune_fleet_group_deadline_missed",
            "Deadline-missed devices per group.",
            [](const GroupStats& g) { return g.deadline_missed; });
  per_group("iprune_fleet_group_failed", "Failed devices per group.",
            [](const GroupStats& g) { return g.failed; });
  per_group("iprune_fleet_group_outages", "Power failures per group.",
            [](const GroupStats& g) { return g.power_failures; });

  // End-to-end inference latency. Native unit is microseconds and the
  // bucket bounds are exact powers of two, so `le` values print as
  // integers — cumulative counts per the exposition format.
  out +=
      "# HELP iprune_fleet_inference_latency_us End-to-end inference "
      "latency (simulated microseconds).\n"
      "# TYPE iprune_fleet_inference_latency_us histogram\n";
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < telemetry::Histogram::kBuckets; ++b) {
    cumulative += t.latency_us.bucket(b);
    char line[96];
    std::snprintf(line, sizeof(line),
                  "iprune_fleet_inference_latency_us_bucket{le=\"%.0f\"} "
                  "%" PRIu64 "\n",
                  telemetry::Histogram::bucket_upper_bound(b), cumulative);
    out += line;
  }
  out += "iprune_fleet_inference_latency_us_bucket{le=\"+Inf\"} " +
         std::to_string(t.latency_us.count()) + "\n";
  out += "iprune_fleet_inference_latency_us_sum " +
         format_g17(t.latency_us.sum()) + "\n";
  out += "iprune_fleet_inference_latency_us_count " +
         std::to_string(t.latency_us.count()) + "\n";
  return out;
}

void PrometheusGateway::on_fleet(const FleetResult& result) {
  const std::filesystem::path path(path_);
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  util::atomic_write_or_throw(path_, render(result), "fleet");
}

std::string PrometheusGateway::describe() const { return "prom:" + path_; }

void MultiGateway::add(MetricsGateway* gateway) {
  if (gateway != nullptr) {
    children_.push_back(gateway);
  }
}

void MultiGateway::add_owned(std::unique_ptr<MetricsGateway> gateway) {
  if (gateway != nullptr) {
    children_.push_back(gateway.get());
    owned_.push_back(std::move(gateway));
  }
}

void MultiGateway::on_device(const DeviceResult& result) {
  for (MetricsGateway* child : children_) {
    child->on_device(result);
  }
}

void MultiGateway::on_fleet(const FleetResult& result) {
  for (MetricsGateway* child : children_) {
    child->on_fleet(result);
  }
}

std::string MultiGateway::describe() const {
  std::string out = "multi[";
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += children_[i]->describe();
  }
  return out + "]";
}

MultiGateway make_gateway(const std::string& kind, const std::string& dir) {
  if (kind != "null" && kind != "csv" && kind != "prom" && kind != "all") {
    throw std::invalid_argument("unknown gateway '" + kind + "'");
  }
  MultiGateway gateway;
  if (kind == "csv" || kind == "all") {
    gateway.add_owned(std::make_unique<CsvGateway>(dir));
  }
  if (kind == "prom" || kind == "all") {
    gateway.add_owned(
        std::make_unique<PrometheusGateway>(dir + "/fleet_metrics.prom"));
  }
  return gateway;
}

}  // namespace iprune::fleet
