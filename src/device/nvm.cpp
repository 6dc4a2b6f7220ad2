#include "device/nvm.hpp"

#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

namespace iprune::device {

void WriteBatch::push_bytes(std::size_t addr,
                            std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) {
    return;
  }
  const std::size_t offset = data_.size();
  data_.insert(data_.end(), bytes.begin(), bytes.end());
  // Coalesce with the previous part when contiguous in both the payload
  // and the address space — keeps torn prefixes byte-granular without
  // inflating the part list for chunked writes.
  if (!parts_.empty()) {
    Part& last = parts_.back();
    if (last.addr + last.len == addr && last.offset + last.len == offset) {
      last.len += bytes.size();
      return;
    }
  }
  parts_.push_back(Part{addr, offset, bytes.size()});
}

void WriteBatch::push_i16(std::size_t addr, std::int16_t value) {
  std::uint8_t raw[2];
  std::memcpy(raw, &value, 2);
  push_bytes(addr, raw);
}

void WriteBatch::push_i32(std::size_t addr, std::int32_t value) {
  std::uint8_t raw[4];
  std::memcpy(raw, &value, 4);
  push_bytes(addr, raw);
}

void WriteBatch::push_u32(std::size_t addr, std::uint32_t value) {
  std::uint8_t raw[4];
  std::memcpy(raw, &value, 4);
  push_bytes(addr, raw);
}

Nvm::Nvm(std::size_t capacity_bytes)
    : storage_(std::make_unique_for_overwrite<std::uint8_t[]>(capacity_bytes)),
      capacity_(capacity_bytes) {}

Address Nvm::allocate(std::size_t bytes) {
  // Round up to 2-byte alignment; guard the +1 against SIZE_MAX wrap so a
  // bogus huge request reports out-of-NVM instead of allocating 0 bytes.
  const std::size_t aligned =
      bytes > std::numeric_limits<std::size_t>::max() - 1
          ? bytes
          : ((bytes + 1) & ~std::size_t{1});
  if (aligned > capacity_ - next_free_) {
    throw std::runtime_error(
        "Nvm::allocate: out of NVM (requested " + std::to_string(bytes) +
        " bytes, free " + std::to_string(free_bytes()) +
        ") — model does not fit the 512 KB FRAM budget");
  }
  const Address addr = next_free_;
  next_free_ += aligned;
  // Raw (cohort) accesses skip the bounds check, so every region handed
  // out lies inside the zero-filled extent.
  if (next_free_ > extent_) {
    extend_to(next_free_);
  }
  return addr;
}

void Nvm::reset() {
  std::memset(storage_.get(), 0, extent_);
  next_free_ = 0;
}

void Nvm::extend_to(std::size_t end) {
  std::memset(storage_.get() + extent_, 0, end - extent_);
  extent_ = end;
}

void Nvm::extend_for(Address addr, std::size_t bytes) {
  check_capacity(addr, bytes);
  if (bytes > 0) {
    extend_to(addr + bytes);
  }
}

void Nvm::load_past_extent(Address addr, std::span<std::uint8_t> bytes) const {
  check_capacity(addr, bytes.size());
  if (bytes.empty()) {
    return;
  }
  const std::size_t held = addr < extent_ ? extent_ - addr : 0;
  std::memcpy(bytes.data(), storage_.get() + addr, held);
  std::memset(bytes.data() + held, 0, bytes.size() - held);
  if (corruption_ != nullptr) {
    corruption_->corrupt_read(addr, bytes);
  }
}

void Nvm::check_capacity(Address addr, std::size_t bytes) const {
  if (addr > capacity_ || bytes > capacity_ - addr) {
    throw std::out_of_range("Nvm access out of range: addr=" +
                            std::to_string(addr) + " len=" +
                            std::to_string(bytes));
  }
}

std::uint8_t Nvm::peek(Address addr) const {
  check_capacity(addr, 1);
  return addr < extent_ ? storage_[addr] : 0;
}

}  // namespace iprune::device
