#pragma once
// Byte-addressable non-volatile memory (external FRAM). Contents persist
// across simulated power failures. A bump allocator hands out regions to
// the deployment step; reads/writes are bounds-checked against the
// capacity.
//
// Backing store: the whole capacity is allocated once and left
// uninitialised, and zero-filled only as far as the furthest byte
// allocated or written (the extent). Bytes past the extent were never
// written, so they read as zero — what the image holds there — without
// growing the store. A 512 KB device that deploys a few KB touches a few
// KB of host memory.
//
// Data integrity: an optional CorruptionModel (corruption.hpp) perturbs
// every store and load (seeded bit flips, stuck-at cells), and multi-part
// WriteBatch commits can be truncated mid-write by the fault injector to
// model a torn write at a power-failure boundary (Msp430Device applies
// the batch; Nvm only provides the staged representation).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "device/corruption.hpp"

namespace iprune::device {

/// Staged multi-part NVM write: the byte-exact payload of one atomic-ish
/// commit (data words + progress record), built by the engine *before*
/// the DMA charge so that a power failure during the transfer can land a
/// torn prefix instead of all-or-nothing. Parts apply in push order; the
/// tear offset is a byte count into the concatenated payload.
class WriteBatch {
 public:
  void clear() {
    parts_.clear();
    data_.clear();
  }
  [[nodiscard]] bool empty() const { return parts_.empty(); }
  [[nodiscard]] std::size_t total_bytes() const { return data_.size(); }
  [[nodiscard]] std::size_t parts() const { return parts_.size(); }

  void push_bytes(std::size_t addr, std::span<const std::uint8_t> bytes);
  void push_i16(std::size_t addr, std::int16_t value);
  void push_i32(std::size_t addr, std::int32_t value);
  void push_u32(std::size_t addr, std::uint32_t value);

  /// Visit `(addr, bytes)` for the first `keep_bytes` of the payload
  /// (parts in push order, the straddling part truncated).
  template <typename Fn>
  void for_prefix(std::size_t keep_bytes, Fn&& fn) const {
    for (const Part& part : parts_) {
      if (keep_bytes == 0) {
        return;
      }
      const std::size_t len = std::min(keep_bytes, part.len);
      fn(part.addr,
         std::span<const std::uint8_t>(data_.data() + part.offset, len));
      keep_bytes -= len;
    }
  }

 private:
  struct Part {
    std::size_t addr = 0;
    std::size_t offset = 0;
    std::size_t len = 0;
  };
  std::vector<Part> parts_;
  std::vector<std::uint8_t> data_;
};

using Address = std::size_t;

class Nvm {
 public:
  explicit Nvm(std::size_t capacity_bytes);
  // Move-only: a copy could not keep raw_storage() fixed as it grows.
  Nvm(const Nvm&) = delete;
  Nvm& operator=(const Nvm&) = delete;
  Nvm(Nvm&&) noexcept = default;
  Nvm& operator=(Nvm&&) noexcept = default;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t allocated() const { return next_free_; }
  [[nodiscard]] std::size_t free_bytes() const {
    return capacity_ - next_free_;
  }

  /// Allocate a region (2-byte aligned, matching the 16-bit device).
  /// Throws std::bad_alloc-like std::runtime_error when out of space —
  /// mirrors the paper's hard 512 KB budget for model + engine state.
  Address allocate(std::size_t bytes);

  /// Reset the allocator and zero the contents (not a power event).
  void reset();

  void write(Address addr, std::span<const std::uint8_t> bytes) {
    store(addr, bytes);
  }
  void read(Address addr, std::span<std::uint8_t> bytes) const {
    load(addr, bytes);
  }

  // Typed helpers for the 16/32-bit values the engine traffics in.
  // Header-inline: every MAC of the engine's inner loops funnels through
  // read_i16, so the call overhead and the redundant raw[] staging copy
  // were measurable; corrupted memories still take the byte-span path so
  // the stateful fault streams see the identical read sequence.

  void write_i16(Address addr, std::int16_t value) {
    std::uint8_t raw[2];
    std::memcpy(raw, &value, 2);
    store(addr, raw);
  }
  [[nodiscard]] std::int16_t read_i16(Address addr) const {
    return read_scalar<std::int16_t>(addr);
  }
  void write_i32(Address addr, std::int32_t value) {
    std::uint8_t raw[4];
    std::memcpy(raw, &value, 4);
    store(addr, raw);
  }
  [[nodiscard]] std::int32_t read_i32(Address addr) const {
    return read_scalar<std::int32_t>(addr);
  }
  void write_u32(Address addr, std::uint32_t value) {
    std::uint8_t raw[4];
    std::memcpy(raw, &value, 4);
    store(addr, raw);
  }
  [[nodiscard]] std::uint32_t read_u32(Address addr) const {
    return read_scalar<std::uint32_t>(addr);
  }

  /// Install a data-fault model applied to every subsequent store/load
  /// (nullptr restores perfect memory). Non-owning; must outlive the Nvm.
  void set_corruption(CorruptionModel* model) { corruption_ = model; }
  [[nodiscard]] CorruptionModel* corruption() const { return corruption_; }

  /// Peek the raw cell contents, bypassing the corruption model's read
  /// path (test/diagnosis facility: "what actually landed?").
  [[nodiscard]] std::uint8_t peek(Address addr) const;

  /// Direct pointer to the backing store — the lockstep-cohort fast path.
  /// Callers take over the bounds discipline (deployment-issued addresses
  /// only: allocate() zero-fills every region it hands out) and must not
  /// hold it while a corruption model is installed: raw accesses bypass
  /// the fault stream. The whole capacity is reserved up front and the
  /// extent grows in place, so the pointer stays valid for the Nvm's
  /// lifetime.
  [[nodiscard]] std::uint8_t* raw_storage() { return storage_.get(); }
  [[nodiscard]] const std::uint8_t* raw_storage() const {
    return storage_.get();
  }

 private:
  /// The inline bounds check, against the zero-filled extent. Two-step
  /// comparison: `addr + bytes` can wrap std::size_t near SIZE_MAX and
  /// sail past the bound. A miss takes an out-of-line path that checks
  /// the capacity.
  [[nodiscard]] bool within_extent(Address addr, std::size_t bytes) const {
    return addr <= extent_ && bytes <= extent_ - addr;
  }
  /// Throws std::out_of_range unless [addr, addr + bytes) lies within
  /// the capacity.
  void check_capacity(Address addr, std::size_t bytes) const;

  /// Zero-fill the store from the extent up to `end` (> extent_).
  void extend_to(std::size_t end);
  /// Cold paths of a miss: a write past the extent grows it; a read past
  /// it yields the held bytes, then zeros, then the corruption model's
  /// read faults. Both throw out_of_range past the capacity.
  void extend_for(Address addr, std::size_t bytes);
  void load_past_extent(Address addr, std::span<std::uint8_t> bytes) const;

  // Zero-length accesses are bounds-checked and then touch nothing: an
  // empty span may carry a null data pointer, which memcpy must not see
  // (and the corruption model draws nothing for zero bytes anyway).
  void store(Address addr, std::span<const std::uint8_t> bytes) {
    if (!within_extent(addr, bytes.size())) [[unlikely]] {
      extend_for(addr, bytes.size());
    }
    if (bytes.empty()) {
      return;
    }
    std::uint8_t* cell = storage_.get() + addr;
    std::memcpy(cell, bytes.data(), bytes.size());
    if (corruption_ != nullptr) {
      corruption_->corrupt_write(addr, {cell, bytes.size()});
    }
  }

  void load(Address addr, std::span<std::uint8_t> bytes) const {
    if (!within_extent(addr, bytes.size())) [[unlikely]] {
      load_past_extent(addr, bytes);
      return;
    }
    if (bytes.empty()) {
      return;
    }
    std::memcpy(bytes.data(), storage_.get() + addr, bytes.size());
    if (corruption_ != nullptr) {
      corruption_->corrupt_read(addr, bytes);
    }
  }

  /// Typed load without the raw[] staging buffer when memory is perfect;
  /// the corruption path still reads through the byte span so fault
  /// streams advance exactly as before.
  template <typename T>
  [[nodiscard]] T read_scalar(Address addr) const {
    T value;
    std::uint8_t raw[sizeof(T)];
    if (!within_extent(addr, sizeof(T))) [[unlikely]] {
      load_past_extent(addr, raw);
      std::memcpy(&value, raw, sizeof(T));
      return value;
    }
    if (corruption_ == nullptr) {
      std::memcpy(&value, storage_.get() + addr, sizeof(T));
      return value;
    }
    std::memcpy(raw, storage_.get() + addr, sizeof(T));
    corruption_->corrupt_read(addr, raw);
    std::memcpy(&value, raw, sizeof(T));
    return value;
  }

  /// `capacity_` bytes of address space; only [0, extent_) is
  /// initialised, and extent_ never shrinks.
  std::unique_ptr<std::uint8_t[]> storage_;
  std::size_t capacity_ = 0;
  std::size_t extent_ = 0;
  std::size_t next_free_ = 0;
  CorruptionModel* corruption_ = nullptr;
};

}  // namespace iprune::device
