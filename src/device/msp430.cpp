#include "device/msp430.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace iprune::device {

namespace {

/// An injected outage during reboot triggers another recharge + reboot
/// (back-to-back failures). A schedule that keeps failing the reboot
/// forever would otherwise hang the simulation; past this bound the run
/// is diagnosed instead.
constexpr std::size_t kMaxRebootRetries = 4096;

power::FaultPoint fault_point_of(CostTag tag) {
  switch (tag) {
    case CostTag::kNvmRead:
      return power::FaultPoint::kNvmRead;
    case CostTag::kNvmWrite:
      return power::FaultPoint::kNvmWrite;
    case CostTag::kLea:
      return power::FaultPoint::kLea;
    case CostTag::kCpu:
      return power::FaultPoint::kCpu;
    case CostTag::kReboot:
      return power::FaultPoint::kReboot;
    case CostTag::kTagCount:
      break;
  }
  return power::FaultPoint::kOther;
}

}  // namespace

std::string describe(const DeviceConfig& config) {
  std::ostringstream out;
  out << "MSP430FR5994-class device: VM " << config.memory.vm_bytes / 1024
      << " KB, NVM " << config.memory.nvm_bytes / 1024
      << " KB, DMA " << config.dma.invocation_us << " us + "
      << config.dma.read_us_per_byte << "/" << config.dma.write_us_per_byte
      << " us/B (r/w), LEA " << config.lea.mac_us << " us/MAC";
  return out.str();
}

Msp430Device::Msp430Device(DeviceConfig config,
                           std::unique_ptr<power::PowerSupply> supply,
                           power::BufferConfig buffer)
    : config_(config),
      nvm_(config.memory.nvm_bytes),
      power_(std::move(supply), buffer) {}

void Msp430Device::reset_stats() {
  stats_ = {};
  power_.reset_stats();
}

void Msp430Device::set_trace_sink(telemetry::TraceSink* sink) {
  sink_ = sink != nullptr ? sink : &telemetry::NullSink::instance();
  trace_on_ = sink_->enabled();
  power_.set_trace_sink(sink);
}

void Msp430Device::record_span(telemetry::EventClass cls, double t_us,
                               double dur_us, double attributed_us,
                               double energy_j, std::uint64_t bytes,
                               std::uint64_t macs) {
  if (!trace_on_) {
    return;
  }
  telemetry::Event event;
  event.cls = cls;
  event.phase = telemetry::EventPhase::kSpan;
  event.t_us = t_us;
  event.dur_us = dur_us;
  event.attributed_us = attributed_us;
  event.energy_j = energy_j;
  event.bytes = bytes;
  event.macs = macs;
  event.seq = vm_epoch_;
  sink_->record(event);
}

void Msp430Device::power_cycle() {
  ++vm_epoch_;
  ++stats_.power_failures;
  const double reboot_us = config_.reboot_us;
  const double reboot_j = config_.rails.base_active_w * reboot_us * 1e-6;
  std::size_t reboot_attempts = 0;
  while (true) {
    const double off_s = power_.recharge(clock_us_ * 1e-6);
    const double off_us = off_s * 1e6;
    clock_us_ += off_us;
    stats_.off_time_us += off_us;

    // Firmware reboot on resumption. Drawn from the freshly charged
    // buffer; by construction it is far smaller than the buffer, so only
    // an injected outage can interrupt it.
    if (power_.consume(clock_us_ * 1e-6, reboot_us * 1e-6, reboot_j,
                       power::FaultPoint::kReboot)) {
      break;
    }
    if (!power_.last_outage_injected()) {
      throw std::runtime_error(
          "Msp430Device: reboot exceeds the energy buffer; the configured "
          "reboot cost makes forward progress impossible");
    }
    // Back-to-back failure: the outage landed during the reboot itself.
    // The aborted attempt still spent its wall time; cycle again.
    clock_us_ += reboot_us;
    stats_.on_time_us += reboot_us;
    ++vm_epoch_;
    ++stats_.power_failures;
    record_span(telemetry::EventClass::kReboot, clock_us_ - reboot_us,
                reboot_us, 0.0, 0.0, 0, 0);
    if (++reboot_attempts > kMaxRebootRetries) {
      throw std::runtime_error(
          "Msp430Device: fault-injection schedule interrupted " +
          std::to_string(kMaxRebootRetries) +
          " consecutive reboots; the device cannot come back up under "
          "this schedule");
    }
  }
  clock_us_ += reboot_us;
  stats_.on_time_us += reboot_us;
  stats_.tag_time_us[static_cast<std::size_t>(CostTag::kReboot)] += reboot_us;
  stats_.energy_j += reboot_j;
  record_span(telemetry::EventClass::kReboot, clock_us_ - reboot_us,
              reboot_us, reboot_us, reboot_j, 0, 0);
  if (trace_on_) {
    telemetry::Event event;
    event.cls = telemetry::EventClass::kPowerOn;
    event.phase = telemetry::EventPhase::kInstant;
    event.t_us = clock_us_;
    event.seq = vm_epoch_;
    sink_->record(event);
  }
}

bool Msp430Device::charge(double latency_us, double extra_power_w,
                          CostTag tag) {
  const double share[static_cast<std::size_t>(CostTag::kTagCount)] = {
      tag == CostTag::kNvmRead ? latency_us : 0.0,
      tag == CostTag::kNvmWrite ? latency_us : 0.0,
      tag == CostTag::kLea ? latency_us : 0.0,
      tag == CostTag::kCpu ? latency_us : 0.0,
      tag == CostTag::kReboot ? latency_us : 0.0,
  };
  const double energy_j =
      (config_.rails.base_active_w + extra_power_w) * latency_us * 1e-6;
  return charge_split(latency_us, energy_j, share, fault_point_of(tag));
}

bool Msp430Device::charge_split(double latency_us, double energy_j,
                                const double* tag_share_us,
                                power::FaultPoint point) {
  const double usable = power_.buffer().usable_j();
  if (energy_j > usable) {
    throw std::runtime_error(
        "Msp430Device: a single operation needs more energy (" +
        std::to_string(energy_j) + " J) than the buffer stores (" +
        std::to_string(usable) +
        " J); inference cannot terminate — shrink the operation "
        "granularity or enlarge the capacitor");
  }
  if (power_.consume(clock_us_ * 1e-6, latency_us * 1e-6, energy_j, point)) {
    apply_staged(true);
    clock_us_ += latency_us;
    stats_.on_time_us += latency_us;
    stats_.energy_j += energy_j;
    for (std::size_t t = 0;
         t < static_cast<std::size_t>(CostTag::kTagCount); ++t) {
      stats_.tag_time_us[t] += tag_share_us[t];
    }
    return true;
  }
  // Brown-out: the partially executed operation is lost. Charge the time
  // the device stayed up during the aborted attempt (approximated as the
  // full latency — the buffer window is tiny relative to any measurement),
  // then recharge and reboot.
  apply_staged(false);
  clock_us_ += latency_us;
  stats_.on_time_us += latency_us;
  power_cycle();
  return false;
}

void Msp430Device::apply_staged(bool charge_ok) {
  if (staged_batch_ == nullptr) {
    return;
  }
  const WriteBatch& batch = *staged_batch_;
  std::size_t keep = 0;
  if (charge_ok) {
    keep = batch.total_bytes();
  } else if (power_.last_outage_injected() && fault_hook_ != nullptr &&
             batch.total_bytes() > 0) {
    keep = std::min(fault_hook_->torn_write_bytes(batch.total_bytes()),
                    batch.total_bytes() - 1);
  }
  last_staged_kept_ = keep;
  batch.for_prefix(keep,
                   [this](Address addr, std::span<const std::uint8_t> bytes) {
                     nvm_.write(addr, bytes);
                   });
}

bool Msp430Device::dma_read(std::size_t bytes) {
  ++stats_.dma_commands;
  stats_.nvm_bytes_read += bytes;
  const double latency = config_.dma.read_latency_us(bytes);
  const double t0 = clock_us_;
  const bool ok = charge(latency, config_.rails.nvm_read_w, CostTag::kNvmRead);
  // Aborted attempts carry zero attribution/energy, mirroring DeviceStats
  // (brown-out discards the attempt's accounting, not its wall time).
  record_span(telemetry::EventClass::kNvmRead, t0, latency,
              ok ? latency : 0.0,
              ok ? (config_.rails.base_active_w + config_.rails.nvm_read_w) *
                       latency * 1e-6
                 : 0.0,
              bytes, 0);
  return ok;
}

bool Msp430Device::dma_write(std::size_t bytes) {
  ++stats_.dma_commands;
  stats_.nvm_bytes_written += bytes;
  const double latency = config_.dma.write_latency_us(bytes);
  const double t0 = clock_us_;
  const bool ok =
      charge(latency, config_.rails.nvm_write_w, CostTag::kNvmWrite);
  record_span(telemetry::EventClass::kNvmWrite, t0, latency,
              ok ? latency : 0.0,
              ok ? (config_.rails.base_active_w + config_.rails.nvm_write_w) *
                       latency * 1e-6
                 : 0.0,
              bytes, 0);
  return ok;
}

bool Msp430Device::lea_op(std::size_t macs) {
  ++stats_.lea_invocations;
  stats_.macs += macs;
  const double latency = config_.lea.op_latency_us(macs);
  const double t0 = clock_us_;
  const bool ok = charge(latency, config_.rails.lea_active_w, CostTag::kLea);
  record_span(telemetry::EventClass::kLea, t0, latency, ok ? latency : 0.0,
              ok ? (config_.rails.base_active_w +
                    config_.rails.lea_active_w) * latency * 1e-6
                 : 0.0,
              0, macs);
  return ok;
}

bool Msp430Device::cpu_work(std::size_t cycles) {
  const double latency = config_.cpu.work_latency_us(cycles);
  const double t0 = clock_us_;
  const bool ok = charge(latency, config_.rails.cpu_active_w, CostTag::kCpu);
  record_span(telemetry::EventClass::kCpu, t0, latency, ok ? latency : 0.0,
              ok ? (config_.rails.base_active_w +
                    config_.rails.cpu_active_w) * latency * 1e-6
                 : 0.0,
              0, 0);
  return ok;
}

bool Msp430Device::dma_commit(const WriteBatch& batch,
                              std::size_t charge_bytes) {
  ++stats_.dma_commands;
  stats_.nvm_bytes_written += charge_bytes;
  const double latency = config_.dma.write_latency_us(charge_bytes);
  const double t0 = clock_us_;
  staged_batch_ = &batch;
  const bool ok =
      charge(latency, config_.rails.nvm_write_w, CostTag::kNvmWrite);
  staged_batch_ = nullptr;
  record_span(telemetry::EventClass::kNvmWrite, t0, latency,
              ok ? latency : 0.0,
              ok ? (config_.rails.base_active_w + config_.rails.nvm_write_w) *
                       latency * 1e-6
                 : 0.0,
              charge_bytes, 0);
  return ok;
}

bool Msp430Device::pipelined_job(std::size_t macs, std::size_t write_bytes,
                                 std::size_t cpu_cycles) {
  return pipelined_impl(nullptr, macs, write_bytes, cpu_cycles);
}

bool Msp430Device::pipelined_commit(const WriteBatch& batch, std::size_t macs,
                                    std::size_t charge_bytes,
                                    std::size_t cpu_cycles) {
  return pipelined_impl(&batch, macs, charge_bytes, cpu_cycles);
}

bool Msp430Device::pipelined_impl(const WriteBatch* batch, std::size_t macs,
                                  std::size_t write_bytes,
                                  std::size_t cpu_cycles) {
  double lea_us = 0.0;
  if (macs > 0) {
    ++stats_.lea_invocations;
    stats_.macs += macs;
    lea_us = config_.lea.op_latency_us(macs);
  }
  double write_us = 0.0;
  if (write_bytes > 0) {
    ++stats_.dma_commands;
    stats_.nvm_bytes_written += write_bytes;
    write_us = config_.dma.write_latency_us(write_bytes);
  }
  const double cpu_us = config_.cpu.work_latency_us(cpu_cycles);
  const double overlapped = std::max(lea_us, write_us);
  const double latency = overlapped + cpu_us;

  // Energy pays for every component in full (both units are busy while the
  // shorter one overlaps with the longer one).
  const double energy_j =
      config_.rails.base_active_w * latency * 1e-6 +
      config_.rails.lea_active_w * lea_us * 1e-6 +
      config_.rails.nvm_write_w * write_us * 1e-6 +
      config_.rails.cpu_active_w * cpu_us * 1e-6;

  // Exposed-time attribution: the dominant unit owns the overlap window.
  double share[static_cast<std::size_t>(CostTag::kTagCount)] = {};
  if (write_us >= lea_us) {
    share[static_cast<std::size_t>(CostTag::kNvmWrite)] = overlapped;
  } else {
    share[static_cast<std::size_t>(CostTag::kLea)] = overlapped;
  }
  share[static_cast<std::size_t>(CostTag::kCpu)] = cpu_us;
  const double t0 = clock_us_;
  // For the fault hook a pipelined job is an NVM-write boundary whenever
  // it commits bytes (the progress-preservation write); compute-only jobs
  // count as accelerator events.
  const power::FaultPoint point =
      write_bytes > 0 ? power::FaultPoint::kNvmWrite
                      : (macs > 0 ? power::FaultPoint::kLea
                                  : power::FaultPoint::kCpu);
  staged_batch_ = batch;
  const bool ok = charge_split(latency, energy_j, share, point);
  staged_batch_ = nullptr;
  if (trace_on_) {
    // One busy span per engaged unit. The LEA and NVM windows overlap on
    // the timeline (that is the pipelining); attribution and per-unit
    // energy (unit rail + base draw over the attributed window) sum back
    // to the operation's exposed latency and total energy.
    const double base_w = config_.rails.base_active_w;
    if (lea_us > 0.0) {
      const double attr =
          ok ? share[static_cast<std::size_t>(CostTag::kLea)] : 0.0;
      record_span(telemetry::EventClass::kLea, t0, lea_us, attr,
                  ok ? config_.rails.lea_active_w * lea_us * 1e-6 +
                           base_w * attr * 1e-6
                     : 0.0,
                  0, macs);
    }
    if (write_us > 0.0) {
      const double attr =
          ok ? share[static_cast<std::size_t>(CostTag::kNvmWrite)] : 0.0;
      record_span(telemetry::EventClass::kNvmWrite, t0, write_us, attr,
                  ok ? config_.rails.nvm_write_w * write_us * 1e-6 +
                           base_w * attr * 1e-6
                     : 0.0,
                  write_bytes, 0);
    }
    if (cpu_us > 0.0) {
      record_span(telemetry::EventClass::kCpu, t0 + overlapped, cpu_us,
                  ok ? cpu_us : 0.0,
                  ok ? (config_.rails.cpu_active_w + base_w) * cpu_us * 1e-6
                     : 0.0,
                  0, 0);
    }
  }
  return ok;
}

}  // namespace iprune::device
