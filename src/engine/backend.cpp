#include "engine/backend.hpp"

#include <stdexcept>

namespace iprune::engine {

const char* to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::kCycle:
      return "cycle";
    case BackendKind::kFunctional:
      return "functional";
    case BackendKind::kCustom:
      return "custom";
  }
  return "?";
}

BackendConfig BackendConfig::msp430_fram() {
  BackendConfig spec;
  spec.kind = BackendKind::kCycle;
  spec.preset = "msp430-fram";
  spec.device = device::DeviceConfig::msp430fr5994();
  return spec;
}

BackendConfig BackendConfig::functional() {
  BackendConfig spec;
  spec.kind = BackendKind::kFunctional;
  spec.preset = "functional";
  // Keep the oracle's memory geometry so lowering (tile plans, NVM
  // layout) — and therefore every computed value — matches bit-exactly.
  spec.device = device::DeviceConfig::msp430fr5994();
  return spec;
}

BackendConfig BackendConfig::reram() {
  BackendConfig spec;
  spec.kind = BackendKind::kCustom;
  spec.preset = "reram";
  spec.device = device::DeviceConfig::msp430fr5994();
  // ReRAM-class external NVM: fast low-energy reads, writes slower than
  // FRAM and with a pronounced energy asymmetry (SET/RESET pulses).
  spec.device.dma.read_us_per_byte = 0.1;
  spec.device.dma.write_us_per_byte = 1.0;
  spec.device.rails.nvm_read_w = 2.0e-3;
  spec.device.rails.nvm_write_w = 20.0e-3;
  return spec;
}

BackendConfig BackendConfig::stt_mram() {
  BackendConfig spec;
  spec.kind = BackendKind::kCustom;
  spec.preset = "stt-mram";
  spec.device = device::DeviceConfig::msp430fr5994();
  // STT-MRAM-class external NVM: near-symmetric fast access, moderate
  // write energy — compresses the read/write cost ratio toward 1.
  spec.device.dma.read_us_per_byte = 0.05;
  spec.device.dma.write_us_per_byte = 0.15;
  spec.device.rails.nvm_read_w = 4.0e-3;
  spec.device.rails.nvm_write_w = 8.0e-3;
  return spec;
}

std::string BackendConfig::describe() const { return preset; }

BackendConfig BackendConfig::parse(const std::string& text) {
  if (text == "msp430-fram") {
    return msp430_fram();
  }
  if (text == "functional") {
    return functional();
  }
  if (text == "reram") {
    return reram();
  }
  if (text == "stt-mram") {
    return stt_mram();
  }
  throw std::runtime_error("backend: unknown preset '" + text + "'");
}

namespace {

bool same_device(const device::DeviceConfig& a, const device::DeviceConfig& b) {
  return a.memory.vm_bytes == b.memory.vm_bytes &&
         a.memory.nvm_bytes == b.memory.nvm_bytes &&
         a.dma.invocation_us == b.dma.invocation_us &&
         a.dma.read_us_per_byte == b.dma.read_us_per_byte &&
         a.dma.write_us_per_byte == b.dma.write_us_per_byte &&
         a.lea.mac_us == b.lea.mac_us && a.lea.invoke_us == b.lea.invoke_us &&
         a.cpu.cycle_us == b.cpu.cycle_us &&
         a.rails.base_active_w == b.rails.base_active_w &&
         a.rails.lea_active_w == b.rails.lea_active_w &&
         a.rails.nvm_read_w == b.rails.nvm_read_w &&
         a.rails.nvm_write_w == b.rails.nvm_write_w &&
         a.rails.cpu_active_w == b.rails.cpu_active_w &&
         a.reboot_us == b.reboot_us;
}

}  // namespace

bool operator==(const BackendConfig& a, const BackendConfig& b) {
  return a.kind == b.kind && a.preset == b.preset &&
         same_device(a.device, b.device);
}

CycleBackend::CycleBackend(device::Msp430Device& device)
    : spec_(BackendConfig::msp430_fram()), device_(&device) {
  spec_.device = device.config();
}

CycleBackend::CycleBackend(BackendConfig spec,
                           std::unique_ptr<power::PowerSupply> supply,
                           power::BufferConfig buffer)
    : spec_(std::move(spec)) {
  if (spec_.kind == BackendKind::kFunctional) {
    throw std::invalid_argument(
        "CycleBackend: the functional preset has no device timeline");
  }
  owned_ = std::make_unique<device::Msp430Device>(
      spec_.device,
      supply != nullptr ? std::move(supply)
                        : power::SupplyPresets::continuous(),
      buffer);
  device_ = owned_.get();
}

FunctionalBackend::FunctionalBackend(BackendConfig spec)
    : spec_(std::move(spec)), nvm_(spec_.device.memory.nvm_bytes) {}

void FunctionalBackend::land(const device::WriteBatch& batch) {
  batch.for_prefix(batch.total_bytes(),
                   [&](device::Address addr,
                       std::span<const std::uint8_t> bytes) {
                     nvm_.write(addr, bytes);
                   });
  last_staged_kept_ = batch.total_bytes();
}

bool FunctionalBackend::dma_commit(const device::WriteBatch& batch,
                                   std::size_t charge_bytes) {
  stats_.nvm_bytes_written += charge_bytes;
  ++stats_.dma_commands;
  land(batch);
  return true;
}

bool FunctionalBackend::pipelined_commit(const device::WriteBatch& batch,
                                         std::size_t macs,
                                         std::size_t charge_bytes,
                                         std::size_t /*cpu_cycles*/) {
  stats_.macs += macs;
  ++stats_.lea_invocations;
  stats_.nvm_bytes_written += charge_bytes;
  ++stats_.dma_commands;
  land(batch);
  return true;
}

std::unique_ptr<Backend> make_backend(const BackendConfig& spec,
                                      std::unique_ptr<power::PowerSupply> supply,
                                      power::BufferConfig buffer) {
  if (spec.kind == BackendKind::kFunctional) {
    return std::make_unique<FunctionalBackend>(spec);
  }
  return std::make_unique<CycleBackend>(spec, std::move(supply), buffer);
}

}  // namespace iprune::engine
