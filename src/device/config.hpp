#pragma once
// Device model constants for the simulated TI MSP430FR5994 platform
// (paper Table I). Latency and energy figures are datasheet-plausible
// values following the microbenchmark methodology of Mendis et al. [13];
// every knob is configurable so the sensitivity of the reproduced results
// to these constants can be explored (bench_ablation_* binaries do so).

#include <cstddef>
#include <string>

namespace iprune::device {

struct MemoryConfig {
  /// Internal SRAM usable by the inference engine (8 KB on MSP430FR5994).
  std::size_t vm_bytes = 8 * 1024;
  /// External FRAM (Cypress CY15B104Q, 512 KB).
  std::size_t nvm_bytes = 512 * 1024;
};

// The latency helpers below are THE chargeable-event cost table: the
// stepping device model, the batched fleet engine, and the host-side
// pruning criterion all price operations through them. The floating-point
// expression order is part of the contract — golden latency/energy figures
// depend on bit-identical arithmetic.

struct DmaConfig {
  /// Fixed per-command cost: DMA setup + NVM (SPI) invocation.
  double invocation_us = 2.0;
  /// Per-byte transfer latency over the SPI link (~2 MB/s).
  double read_us_per_byte = 0.5;
  double write_us_per_byte = 0.5;

  /// Latency of one DMA NVM -> VM command moving `bytes`.
  [[nodiscard]] double read_latency_us(std::size_t bytes) const {
    return invocation_us + read_us_per_byte * static_cast<double>(bytes);
  }
  /// Latency of one DMA VM -> NVM command moving `bytes`.
  [[nodiscard]] double write_latency_us(std::size_t bytes) const {
    return invocation_us + write_us_per_byte * static_cast<double>(bytes);
  }
};

struct LeaConfig {
  /// Per-MAC latency of the Low Energy Accelerator (16 MHz, ~2 cyc/MAC).
  double mac_us = 0.125;
  /// Fixed command issue latency per accelerator operation.
  double invoke_us = 1.0;

  /// Latency of one accelerator invocation performing `macs` MACs.
  [[nodiscard]] double op_latency_us(std::size_t macs) const {
    return invoke_us + mac_us * static_cast<double>(macs);
  }
};

struct CpuConfig {
  /// 16 MHz MCLK.
  double cycle_us = 0.0625;

  /// Latency of `cycles` CPU-executed cycles.
  [[nodiscard]] double work_latency_us(std::size_t cycles) const {
    return cycle_us * static_cast<double>(cycles);
  }
};

struct PowerRailConfig {
  /// Baseline draw while the device is on (clock tree, regulators), watts.
  double base_active_w = 4.0e-3;
  /// Additional draw while the LEA crunches.
  double lea_active_w = 4.0e-3;
  /// Additional draw during NVM/SPI reads.
  double nvm_read_w = 6.0e-3;
  /// Additional draw during NVM/SPI writes (FRAM writes cost more).
  double nvm_write_w = 10.0e-3;
  /// Additional draw for CPU-executed work (pooling, bookkeeping).
  double cpu_active_w = 2.0e-3;
};

struct DeviceConfig {
  MemoryConfig memory;
  DmaConfig dma;
  LeaConfig lea;
  CpuConfig cpu;
  PowerRailConfig rails;
  /// Boot/firmware re-init latency charged on every power resumption.
  double reboot_us = 1000.0;

  [[nodiscard]] static DeviceConfig msp430fr5994() { return {}; }
};

/// One-line description for bench headers.
std::string describe(const DeviceConfig& config);

}  // namespace iprune::device
