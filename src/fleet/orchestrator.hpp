#pragma once
// FleetOrchestrator: simulate every device of a FleetSpec and aggregate.
//
// Scaling model: devices are independent, so each pool lane runs whole
// devices to completion (construct -> inferences -> destroy, one device
// stack live per lane — NOT one per fleet member, which is what makes
// thousand-device fleets fit in memory). Devices are processed in batches
// of FleetSpec::batch; after each batch the per-device results are
// streamed to the gateway and folded into the aggregates in device-index
// order, then dropped.
//
// Determinism contract: device outcomes depend only on the resolved
// DeviceSpec (never on lane placement), results are gathered by index
// (runtime::parallel_map), and all aggregation is serial in index order —
// so the FleetResult, the gateway callbacks, and every file a gateway
// writes are bit-identical for any lane count, including 1.

#include "fleet/gateway.hpp"
#include "fleet/result.hpp"
#include "fleet/spec.hpp"
#include "runtime/thread_pool.hpp"

namespace iprune::fleet {

class FleetOrchestrator {
 public:
  explicit FleetOrchestrator(FleetSpec spec);

  [[nodiscard]] const FleetSpec& spec() const { return spec_; }

  /// Simulate the whole fleet. `pool` defaults to the shared pool;
  /// `gateway` (optional) observes every device result plus the final
  /// aggregate. Device-level errors become failed devices in the result;
  /// only infrastructure errors (e.g. a gateway that cannot write) throw.
  FleetResult run(runtime::ThreadPool* pool = nullptr,
                  MetricsGateway* gateway = nullptr) const;

 private:
  FleetSpec spec_;
};

}  // namespace iprune::fleet
