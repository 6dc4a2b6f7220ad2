#pragma once
// Cycle-approximate MSP430FR5994 + LEA + external-FRAM device model.
//
// The engine (src/engine) drives inference through the primitives below;
// each primitive advances the simulated clock, draws energy through the
// PowerManager, and updates per-category latency statistics. When the
// energy buffer browns out mid-operation the primitive returns false: the
// device has lost VM contents (vm_epoch() changes), recharged, rebooted,
// and the caller must re-establish its VM state before retrying — exactly
// the progress-recovery contract of intermittent systems.

#include <memory>

#include "device/config.hpp"
#include "device/nvm.hpp"
#include "power/manager.hpp"
#include "telemetry/sink.hpp"

namespace iprune::device {

enum class CostTag : std::size_t {
  kNvmRead = 0,
  kNvmWrite,
  kLea,
  kCpu,
  kReboot,
  kTagCount,
};

struct DeviceStats {
  double on_time_us = 0.0;
  double off_time_us = 0.0;
  double tag_time_us[static_cast<std::size_t>(CostTag::kTagCount)] = {};
  double energy_j = 0.0;
  std::size_t power_failures = 0;
  std::size_t nvm_bytes_read = 0;
  std::size_t nvm_bytes_written = 0;
  std::size_t dma_commands = 0;
  std::size_t lea_invocations = 0;
  std::size_t macs = 0;

  [[nodiscard]] double tag_us(CostTag tag) const {
    return tag_time_us[static_cast<std::size_t>(tag)];
  }
  [[nodiscard]] double total_time_us() const {
    return on_time_us + off_time_us;
  }
};

class Msp430Device {
 public:
  Msp430Device(DeviceConfig config,
               std::unique_ptr<power::PowerSupply> supply,
               power::BufferConfig buffer = {});

  [[nodiscard]] const DeviceConfig& config() const { return config_; }
  [[nodiscard]] Nvm& nvm() { return nvm_; }
  [[nodiscard]] const Nvm& nvm() const { return nvm_; }

  /// Simulated wall-clock (microseconds since construction).
  [[nodiscard]] double now_us() const { return clock_us_; }

  /// Monotone counter bumped by every power failure; cached VM state from
  /// an older epoch is garbage and must be re-fetched.
  [[nodiscard]] std::uint64_t vm_epoch() const { return vm_epoch_; }

  [[nodiscard]] const DeviceStats& stats() const { return stats_; }
  void reset_stats();

  /// The device's power subsystem (read-only): energy-conservation ledger
  /// (harvested / consumed / wasted joules), buffer state, supply. Fleet
  /// aggregation reads harvest totals from here.
  [[nodiscard]] const power::PowerManager& power() const { return power_; }

  /// Route structured telemetry (per-operation spans, brown-outs,
  /// recharge/reboot) to `sink`; nullptr restores the null sink, under
  /// which every emission site costs a single predictable branch.
  /// Non-owning; the sink must outlive the device.
  void set_trace_sink(telemetry::TraceSink* sink);
  [[nodiscard]] telemetry::TraceSink& trace_sink() const { return *sink_; }
  /// Null-sink fast path for emission hooks: a cached flag (refreshed by
  /// set_trace_sink) so the per-operation gate is one member-bool test
  /// with no sink pointer chase.
  [[nodiscard]] bool trace_enabled() const { return trace_on_; }

  /// Install a deterministic outage-injection hook on the power manager
  /// (nullptr removes it). Every chargeable primitive below is one hook
  /// event, labelled with its FaultPoint; a firing hook forces the full
  /// brown-out + recharge + reboot path at that exact event. Injection
  /// during the reboot itself is survivable (back-to-back failures) and
  /// bounded by a retry watchdog. Non-owning; must outlive the device.
  void set_fault_hook(power::FaultHook* hook) {
    fault_hook_ = hook;
    power_.set_fault_hook(hook);
  }

  /// Bytes of the most recent staged WriteBatch that actually landed in
  /// NVM (the whole batch on success, the torn prefix on an injected
  /// outage, 0 on an organic one). The batched fleet engine replays the
  /// leader's kept-prefix onto follower batches.
  [[nodiscard]] std::size_t last_staged_kept() const {
    return last_staged_kept_;
  }

  // --- primitives (return false on power failure during the operation) ---

  /// DMA transfer NVM -> VM.
  [[nodiscard]] bool dma_read(std::size_t bytes);
  /// DMA transfer VM -> NVM.
  [[nodiscard]] bool dma_write(std::size_t bytes);
  /// One LEA accelerator invocation performing `macs` multiply-accumulates.
  [[nodiscard]] bool lea_op(std::size_t macs);
  /// CPU-executed work.
  [[nodiscard]] bool cpu_work(std::size_t cycles);
  /// One intermittent-inference job: `macs` on the LEA pipelined with a
  /// `write_bytes` NVM write-back (progress preservation). The exposed
  /// latency is max(compute, write) + fixed CPU overhead; energy pays for
  /// both. Attribution: the dominant component owns the overlapped time
  /// (this is what makes Fig. 2's write-dominated breakdown visible).
  [[nodiscard]] bool pipelined_job(std::size_t macs, std::size_t write_bytes,
                                   std::size_t cpu_cycles);

  // --- staged commits (torn-write-aware NVM transfers) ---
  //
  // The plain primitives charge energy only; the caller performs its NVM
  // writes after a successful return, so an outage is all-or-nothing. The
  // commit variants below carry the byte-exact payload (a WriteBatch)
  // INTO the charge: on success the full batch lands in NVM, and on an
  // injected brown-out the fault hook picks how many leading bytes landed
  // before the supply collapsed (clamped to total-1) — a torn write. An
  // organic brown-out keeps the classic all-or-nothing model so energy
  // sweeps stay deterministic. `charge_bytes` is the byte count used for
  // latency/energy/stats (it can exceed the batch payload when part of
  // the transfer is VM-buffer traffic the batch does not persist).

  /// DMA VM -> NVM transfer of `batch`; accounting mirrors
  /// dma_write(charge_bytes) exactly.
  [[nodiscard]] bool dma_commit(const WriteBatch& batch,
                                std::size_t charge_bytes);
  /// pipelined_job(macs, charge_bytes, cpu_cycles) with the write payload
  /// staged as `batch`.
  [[nodiscard]] bool pipelined_commit(const WriteBatch& batch,
                                      std::size_t macs,
                                      std::size_t charge_bytes,
                                      std::size_t cpu_cycles);

 private:
  /// Charge one operation; on brown-out performs the full power-cycle
  /// (recharge + reboot) and returns false.
  [[nodiscard]] bool charge(double latency_us, double extra_power_w,
                            CostTag tag);
  [[nodiscard]] bool charge_split(double latency_us, double energy_j,
                                  const double* tag_share_us,
                                  power::FaultPoint point);
  [[nodiscard]] bool pipelined_impl(const WriteBatch* batch, std::size_t macs,
                                    std::size_t write_bytes,
                                    std::size_t cpu_cycles);
  /// Land the staged batch after a charge: everything on success, the
  /// hook-chosen torn prefix on an injected outage, nothing on an organic
  /// one. Must run before power_cycle() — the reboot's own charge resets
  /// PowerManager::last_outage_injected().
  void apply_staged(bool charge_ok);
  void power_cycle();

  /// Emit one unit-busy span starting at `t_us` (the operation's start).
  void record_span(telemetry::EventClass cls, double t_us, double dur_us,
                   double attributed_us, double energy_j,
                   std::uint64_t bytes, std::uint64_t macs);

  DeviceConfig config_;
  Nvm nvm_;
  power::PowerManager power_;
  DeviceStats stats_;
  double clock_us_ = 0.0;
  std::uint64_t vm_epoch_ = 0;
  telemetry::TraceSink* sink_ = &telemetry::NullSink::instance();
  bool trace_on_ = false;
  power::FaultHook* fault_hook_ = nullptr;
  const WriteBatch* staged_batch_ = nullptr;
  std::size_t last_staged_kept_ = 0;
};

}  // namespace iprune::device
