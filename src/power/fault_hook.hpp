#pragma once
// Deterministic fault-injection hook for the power subsystem.
//
// Organic power failures only occur where the energy buffer happens to
// drain, so adversarial recovery boundaries (mid-commit, first/last job of
// a node, back-to-back failures during reboot) are never exercised by
// energy accounting alone. A FaultHook installed on the PowerManager is
// consulted once per chargeable device operation — the operation's kind is
// the FaultPoint — and can force a brown-out at a precise event index,
// independent of how much energy the buffer holds. src/fault/ builds the
// schedule-driven injector and the differential crash-consistency checker
// on top of this interface.

#include <cstddef>
#include <cstdint>

namespace iprune::power {

/// Kind of chargeable operation a forced outage can interrupt. Mirrors
/// device::CostTag (the power layer cannot depend on the device layer).
enum class FaultPoint : std::uint8_t {
  kNvmRead = 0,  // DMA NVM -> VM (includes the recovery re-read)
  kNvmWrite,     // DMA VM -> NVM (progress commits land here)
  kLea,          // accelerator invocation
  kCpu,          // CPU-executed work
  kReboot,       // firmware reboot after a recharge
  kOther,
  kPointCount,
};

inline const char* fault_point_name(FaultPoint point) {
  switch (point) {
    case FaultPoint::kNvmRead:
      return "nvm_read";
    case FaultPoint::kNvmWrite:
      return "nvm_write";
    case FaultPoint::kLea:
      return "lea";
    case FaultPoint::kCpu:
      return "cpu";
    case FaultPoint::kReboot:
      return "reboot";
    case FaultPoint::kOther:
      return "other";
    case FaultPoint::kPointCount:
      break;
  }
  return "?";
}

/// Consulted by PowerManager::consume() for every chargeable operation.
/// Returning true forces a brown-out for that operation: the buffer is
/// drained and the device goes through the ordinary recharge + reboot
/// path, exactly as if the capacitor had emptied organically.
class FaultHook {
 public:
  virtual ~FaultHook() = default;
  [[nodiscard]] virtual bool should_fail(FaultPoint point) = 0;

  /// When an injected outage interrupts a staged multi-byte NVM commit of
  /// `total_bytes`, how many leading bytes still land (a torn write).
  /// Return 0 for the classic all-or-nothing model. The device clamps the
  /// answer to total_bytes - 1: a torn write by definition loses at least
  /// its final byte (a fully-landed commit is just an outage at the next
  /// boundary, which the schedule can express directly).
  [[nodiscard]] virtual std::size_t torn_write_bytes(std::size_t total_bytes) {
    (void)total_bytes;
    return 0;
  }
};

}  // namespace iprune::power
