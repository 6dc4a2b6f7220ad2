#pragma once
// engine::Backend — the seam between the inference engine and the device
// model. The engine drives inference exclusively through the chargeable
// primitives below; a backend decides what each primitive costs (simulated
// time, energy, brown-out risk) and how staged NVM commits land.
//
// Two implementations:
//  - CycleBackend: the cycle-approximate MSP430FR5994 + FRAM oracle. A
//    thin forwarding shim over device::Msp430Device — behavior-preserving
//    by construction, pinned by golden digests (tests/engine/
//    backend_golden_test.cpp). The memory-technology presets (ReRAM,
//    STT-MRAM; BackendKind::kCustom) are the same executor priced by
//    substituted VM/NVM cost constants: data, not another type.
//  - FunctionalBackend: value semantics only. Every primitive succeeds
//    instantly (no clock, no energy ledger, no power failures); staged
//    commits land whole. Logits are bit-identical to the cycle backend
//    (tests/engine/backend_equivalence_test.cpp) at a fraction of the
//    cost — built for search inner loops and fleet scale.
//
// A lockstep cohort (engine.hpp) drives only its leader through this
// seam; the followers touch nothing but their NVM images.
//
// docs/backends.md has the interface contract, the equivalence
// guarantees, and a checklist for adding a backend.

#include <memory>
#include <string>

#include "device/config.hpp"
#include "device/msp430.hpp"
#include "device/nvm.hpp"
#include "power/energy_buffer.hpp"
#include "power/manager.hpp"
#include "power/supply.hpp"
#include "telemetry/sink.hpp"

namespace iprune::engine {

enum class BackendKind {
  kCycle,       // cycle-approximate MSP430+FRAM oracle
  kFunctional,  // values only: no timing, no energy, no outages
  kCustom,      // cycle executor with substituted memory-cost constants
};

[[nodiscard]] const char* to_string(BackendKind kind);

/// Declarative backend selection: a named preset plus the device cost
/// constants it stands for. This is what fleet specs, scenario JSON, and
/// the search cache key carry; make_backend() turns it into a live
/// Backend. describe()/parse() round-trip byte-exactly on the canonical
/// preset names.
struct BackendConfig {
  BackendKind kind = BackendKind::kCycle;
  /// Canonical preset token ("msp430-fram", "functional", "reram",
  /// "stt-mram"). parse() only accepts these; programmatic custom
  /// constants should keep a stable label here for cache keys and bench
  /// schema tags.
  std::string preset = "msp430-fram";
  /// Cost constants priced by cycle/custom backends. The functional
  /// backend uses only `device.memory` (NVM capacity / VM budget), so
  /// lowering — and therefore the computed values — match the oracle.
  device::DeviceConfig device;

  /// The paper's evaluation platform (DeviceConfig::msp430fr5994()).
  [[nodiscard]] static BackendConfig msp430_fram();
  /// No-cost functional execution (same memory layout as msp430-fram).
  [[nodiscard]] static BackendConfig functional();
  /// ReRAM-like external NVM: reads ~5x faster/cheaper than FRAM-over-SPI,
  /// writes ~2x slower and markedly more power-hungry.
  [[nodiscard]] static BackendConfig reram();
  /// STT-MRAM-like external NVM: near-SRAM reads, fast writes, moderate
  /// write energy — the "future hardware" end of the cost-ratio axis.
  [[nodiscard]] static BackendConfig stt_mram();

  /// Canonical token for specs and bench schema tags (the preset name).
  [[nodiscard]] std::string describe() const;
  /// Inverse of describe(). Throws std::runtime_error
  /// "backend: unknown preset '<text>'" for anything else.
  static BackendConfig parse(const std::string& text);

  friend bool operator==(const BackendConfig& a, const BackendConfig& b);
  friend bool operator!=(const BackendConfig& a, const BackendConfig& b) {
    return !(a == b);
  }
};

/// Device-model interface the engine executes against. Mirrors the
/// Msp430Device primitive set: every mutating primitive returns false
/// when a power failure interrupted it (the caller re-establishes VM
/// state and retries); backends without a power model always return true.
class Backend {
 public:
  virtual ~Backend() = default;

  [[nodiscard]] virtual BackendKind kind() const = 0;
  /// The declarative config this backend was built from (preset label +
  /// cost constants) — cache keys and bench schema tags read this.
  [[nodiscard]] virtual const BackendConfig& spec() const = 0;
  [[nodiscard]] virtual const device::DeviceConfig& config() const = 0;
  [[nodiscard]] virtual device::Nvm& nvm() = 0;
  [[nodiscard]] virtual const device::Nvm& nvm() const = 0;

  /// Simulated wall-clock (us). Functional backends hold it at zero.
  [[nodiscard]] virtual double now_us() const = 0;
  /// Monotone power-failure counter; cached VM state from an older epoch
  /// must be re-fetched. Constant when the backend cannot lose power.
  [[nodiscard]] virtual std::uint64_t vm_epoch() const = 0;
  [[nodiscard]] virtual const device::DeviceStats& stats() const = 0;
  virtual void reset_stats() = 0;

  /// Power subsystem ledger, nullptr when the backend has no power model
  /// (fleet aggregation reports zero harvest for those).
  [[nodiscard]] virtual const power::PowerManager* power() const {
    return nullptr;
  }

  // --- telemetry / fault hooks (default: inert) ---
  virtual void set_trace_sink(telemetry::TraceSink* /*sink*/) {}
  [[nodiscard]] virtual bool trace_enabled() const { return false; }
  [[nodiscard]] virtual telemetry::TraceSink& trace_sink() const {
    return telemetry::NullSink::instance();
  }
  virtual void set_fault_hook(power::FaultHook* /*hook*/) {}

  /// Bytes of the most recent staged WriteBatch that landed in NVM.
  [[nodiscard]] virtual std::size_t last_staged_kept() const = 0;

  // --- chargeable primitives (false == power failure mid-operation) ---
  [[nodiscard]] virtual bool dma_read(std::size_t bytes) = 0;
  [[nodiscard]] virtual bool dma_write(std::size_t bytes) = 0;
  [[nodiscard]] virtual bool lea_op(std::size_t macs) = 0;
  [[nodiscard]] virtual bool cpu_work(std::size_t cycles) = 0;
  [[nodiscard]] virtual bool pipelined_job(std::size_t macs,
                                           std::size_t write_bytes,
                                           std::size_t cpu_cycles) = 0;
  [[nodiscard]] virtual bool dma_commit(const device::WriteBatch& batch,
                                        std::size_t charge_bytes) = 0;
  [[nodiscard]] virtual bool pipelined_commit(const device::WriteBatch& batch,
                                              std::size_t macs,
                                              std::size_t charge_bytes,
                                              std::size_t cpu_cycles) = 0;
};

/// The cycle-approximate oracle: forwards every primitive to an
/// Msp430Device. Constructible as a non-owning view over an existing
/// device (the engine's Msp430Device constructors, cohort leaders
/// included) or as an owning backend built from a supply + buffer.
class CycleBackend final : public Backend {
 public:
  /// Non-owning view; `device` must outlive the backend.
  explicit CycleBackend(device::Msp430Device& device);
  /// Owning: builds the device from `spec.device` cost constants. `spec`
  /// is a cycle or memory-technology (kCustom) preset; a functional spec
  /// throws std::invalid_argument.
  CycleBackend(BackendConfig spec, std::unique_ptr<power::PowerSupply> supply,
               power::BufferConfig buffer = {});

  [[nodiscard]] BackendKind kind() const override { return spec_.kind; }
  [[nodiscard]] const BackendConfig& spec() const override { return spec_; }
  [[nodiscard]] const device::DeviceConfig& config() const override {
    return device_->config();
  }
  [[nodiscard]] device::Msp430Device& device() { return *device_; }
  [[nodiscard]] device::Nvm& nvm() override { return device_->nvm(); }
  [[nodiscard]] const device::Nvm& nvm() const override {
    return device_->nvm();
  }
  [[nodiscard]] double now_us() const override { return device_->now_us(); }
  [[nodiscard]] std::uint64_t vm_epoch() const override {
    return device_->vm_epoch();
  }
  [[nodiscard]] const device::DeviceStats& stats() const override {
    return device_->stats();
  }
  void reset_stats() override { device_->reset_stats(); }
  [[nodiscard]] const power::PowerManager* power() const override {
    return &device_->power();
  }

  void set_trace_sink(telemetry::TraceSink* sink) override {
    device_->set_trace_sink(sink);
  }
  [[nodiscard]] bool trace_enabled() const override {
    return device_->trace_enabled();
  }
  [[nodiscard]] telemetry::TraceSink& trace_sink() const override {
    return device_->trace_sink();
  }
  void set_fault_hook(power::FaultHook* hook) override {
    device_->set_fault_hook(hook);
  }
  [[nodiscard]] std::size_t last_staged_kept() const override {
    return device_->last_staged_kept();
  }

  [[nodiscard]] bool dma_read(std::size_t bytes) override {
    return device_->dma_read(bytes);
  }
  [[nodiscard]] bool dma_write(std::size_t bytes) override {
    return device_->dma_write(bytes);
  }
  [[nodiscard]] bool lea_op(std::size_t macs) override {
    return device_->lea_op(macs);
  }
  [[nodiscard]] bool cpu_work(std::size_t cycles) override {
    return device_->cpu_work(cycles);
  }
  [[nodiscard]] bool pipelined_job(std::size_t macs, std::size_t write_bytes,
                                   std::size_t cpu_cycles) override {
    return device_->pipelined_job(macs, write_bytes, cpu_cycles);
  }
  [[nodiscard]] bool dma_commit(const device::WriteBatch& batch,
                                std::size_t charge_bytes) override {
    return device_->dma_commit(batch, charge_bytes);
  }
  [[nodiscard]] bool pipelined_commit(const device::WriteBatch& batch,
                                      std::size_t macs,
                                      std::size_t charge_bytes,
                                      std::size_t cpu_cycles) override {
    return device_->pipelined_commit(batch, macs, charge_bytes, cpu_cycles);
  }

 private:
  BackendConfig spec_;
  std::unique_ptr<device::Msp430Device> owned_;
  device::Msp430Device* device_ = nullptr;  // == owned_.get() when owning
};

/// Values only. Owns a bare Nvm sized by `spec.device.memory`; every
/// primitive succeeds immediately, staged commits land whole (no torn
/// writes, no organic outages), the clock stays at zero, and stats count
/// only traffic (bytes / MACs / invocations) so callers can still reason
/// about work volume. vm_epoch() is constant: VM contents are never lost.
class FunctionalBackend final : public Backend {
 public:
  explicit FunctionalBackend(BackendConfig spec = BackendConfig::functional());

  [[nodiscard]] BackendKind kind() const override {
    return BackendKind::kFunctional;
  }
  [[nodiscard]] const BackendConfig& spec() const override { return spec_; }
  [[nodiscard]] const device::DeviceConfig& config() const override {
    return spec_.device;
  }
  [[nodiscard]] device::Nvm& nvm() override { return nvm_; }
  [[nodiscard]] const device::Nvm& nvm() const override { return nvm_; }
  [[nodiscard]] double now_us() const override { return 0.0; }
  [[nodiscard]] std::uint64_t vm_epoch() const override { return 0; }
  [[nodiscard]] const device::DeviceStats& stats() const override {
    return stats_;
  }
  void reset_stats() override { stats_ = {}; }
  [[nodiscard]] std::size_t last_staged_kept() const override {
    return last_staged_kept_;
  }

  [[nodiscard]] bool dma_read(std::size_t bytes) override {
    stats_.nvm_bytes_read += bytes;
    ++stats_.dma_commands;
    return true;
  }
  [[nodiscard]] bool dma_write(std::size_t bytes) override {
    stats_.nvm_bytes_written += bytes;
    ++stats_.dma_commands;
    return true;
  }
  [[nodiscard]] bool lea_op(std::size_t macs) override {
    stats_.macs += macs;
    ++stats_.lea_invocations;
    return true;
  }
  [[nodiscard]] bool cpu_work(std::size_t /*cycles*/) override { return true; }
  [[nodiscard]] bool pipelined_job(std::size_t macs, std::size_t write_bytes,
                                   std::size_t /*cpu_cycles*/) override {
    stats_.macs += macs;
    ++stats_.lea_invocations;
    stats_.nvm_bytes_written += write_bytes;
    ++stats_.dma_commands;
    return true;
  }
  [[nodiscard]] bool dma_commit(const device::WriteBatch& batch,
                                std::size_t charge_bytes) override;
  [[nodiscard]] bool pipelined_commit(const device::WriteBatch& batch,
                                      std::size_t macs,
                                      std::size_t charge_bytes,
                                      std::size_t cpu_cycles) override;

 private:
  void land(const device::WriteBatch& batch);

  BackendConfig spec_;
  device::Nvm nvm_;
  device::DeviceStats stats_;
  std::size_t last_staged_kept_ = 0;
};

/// Build a live backend for `spec`: a FunctionalBackend for the functional
/// preset, a CycleBackend for every other. `supply`/`buffer` feed the
/// cycle backend's power model and are ignored by the functional backend
/// (a null supply defaults to continuous power).
[[nodiscard]] std::unique_ptr<Backend> make_backend(
    const BackendConfig& spec,
    std::unique_ptr<power::PowerSupply> supply = nullptr,
    power::BufferConfig buffer = {});

}  // namespace iprune::engine
