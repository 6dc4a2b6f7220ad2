#include "device/nvm.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "device/corruption.hpp"

namespace iprune::device {
namespace {

constexpr std::size_t kSizeMax = std::numeric_limits<std::size_t>::max();

TEST(Nvm, AllocatorHandsOutDisjointRegions) {
  Nvm nvm(1024);
  const Address a = nvm.allocate(100);
  const Address b = nvm.allocate(50);
  EXPECT_GE(b, a + 100);
  EXPECT_EQ(nvm.capacity(), 1024u);
  EXPECT_LE(nvm.allocated(), 1024u);
}

TEST(Nvm, AllocationsAreTwoByteAligned) {
  Nvm nvm(1024);
  (void)nvm.allocate(3);
  const Address b = nvm.allocate(2);
  EXPECT_EQ(b % 2, 0u);
}

TEST(Nvm, ExhaustionThrows) {
  Nvm nvm(64);
  (void)nvm.allocate(60);
  EXPECT_THROW(nvm.allocate(8), std::runtime_error);
}

TEST(Nvm, ResetReclaimsAndZeroes) {
  Nvm nvm(64);
  const Address a = nvm.allocate(8);
  nvm.write_i32(a, 0x12345678);
  nvm.reset();
  EXPECT_EQ(nvm.allocated(), 0u);
  const Address b = nvm.allocate(8);
  EXPECT_EQ(nvm.read_i32(b), 0);
}

TEST(Nvm, TypedAccessorsRoundTrip) {
  Nvm nvm(64);
  const Address a = nvm.allocate(16);
  nvm.write_i16(a, -12345);
  nvm.write_i32(a + 4, -7654321);
  nvm.write_u32(a + 8, 0xDEADBEEF);
  EXPECT_EQ(nvm.read_i16(a), -12345);
  EXPECT_EQ(nvm.read_i32(a + 4), -7654321);
  EXPECT_EQ(nvm.read_u32(a + 8), 0xDEADBEEFu);
}

TEST(Nvm, BulkReadWriteRoundTrip) {
  Nvm nvm(128);
  const Address a = nvm.allocate(8);
  const std::uint8_t src[4] = {1, 2, 3, 4};
  nvm.write(a, src);
  std::uint8_t dst[4] = {};
  nvm.read(a, dst);
  EXPECT_EQ(dst[0], 1);
  EXPECT_EQ(dst[3], 4);
}

TEST(Nvm, OutOfRangeAccessThrows) {
  Nvm nvm(16);
  EXPECT_THROW((void)nvm.read_i16(15), std::out_of_range);
  EXPECT_THROW(nvm.write_i32(14, 1), std::out_of_range);
  EXPECT_NO_THROW(nvm.write_i16(14, 1));
}

TEST(Nvm, DataPersistsAcrossManyWrites) {
  Nvm nvm(4096);
  const Address a = nvm.allocate(4096);
  for (std::size_t i = 0; i < 2048; ++i) {
    nvm.write_i16(a + i * 2, static_cast<std::int16_t>(i - 1024));
  }
  for (std::size_t i = 0; i < 2048; ++i) {
    EXPECT_EQ(nvm.read_i16(a + i * 2), static_cast<std::int16_t>(i - 1024));
  }
}

// Regression: `addr + bytes` used to wrap around SIZE_MAX inside the
// bounds check, turning a wildly out-of-range access into an in-range one.
TEST(Nvm, BoundsCheckNearSizeMaxDoesNotWrap) {
  Nvm nvm(64);
  std::uint8_t buf[4] = {};
  EXPECT_THROW(nvm.read(kSizeMax - 1, buf), std::out_of_range);
  EXPECT_THROW(nvm.read(kSizeMax - 3, buf), std::out_of_range);
  EXPECT_THROW(nvm.write(kSizeMax, {buf, 1}), std::out_of_range);
  EXPECT_THROW(nvm.write_i32(kSizeMax - 2, 1), std::out_of_range);
  EXPECT_THROW((void)nvm.read_u32(kSizeMax - 2), std::out_of_range);
}

// Regression: the 2-byte alignment round-up `(bytes + 1) & ~1` used to
// wrap SIZE_MAX to 0 and "succeed" with a zero-byte allocation.
TEST(Nvm, AllocateNearSizeMaxThrowsInsteadOfWrapping) {
  Nvm nvm(64);
  EXPECT_THROW(nvm.allocate(kSizeMax), std::runtime_error);
  EXPECT_THROW(nvm.allocate(kSizeMax - 1), std::runtime_error);
  EXPECT_THROW(nvm.allocate(65), std::runtime_error);
  EXPECT_EQ(nvm.allocated(), 0u);
  EXPECT_NO_THROW(nvm.allocate(64));
}

// The backing store is zero-filled only as far as it is used; bytes never
// written read as zero anywhere in capacity, whichever accessor reads them.
TEST(Nvm, UnwrittenBytesReadAsZeroAnywhereInCapacity) {
  Nvm nvm(4096);
  const Address a = nvm.allocate(10);
  nvm.write_i16(a, -1);
  nvm.write_i16(a + 8, -1);  // the last allocated bytes
  for (const Address addr : {Address{2}, Address{64}, Address{4092}}) {
    EXPECT_EQ(nvm.read_i16(addr), 0) << addr;
    EXPECT_EQ(nvm.read_i32(addr), 0) << addr;
    EXPECT_EQ(nvm.read_u32(addr), 0u) << addr;
    EXPECT_EQ(nvm.peek(addr), 0) << addr;
    std::uint8_t buf[4] = {1, 1, 1, 1};
    nvm.read(addr, buf);
    EXPECT_EQ(std::vector<std::uint8_t>(buf, buf + 4),
              std::vector<std::uint8_t>(4, 0))
        << addr;
  }
  EXPECT_EQ(nvm.peek(4095), 0);
  // One span straddling the end of the written extent: held bytes, then
  // zeros.
  std::uint8_t span[6] = {7, 7, 7, 7, 7, 7};
  nvm.read(a + 8, span);
  EXPECT_EQ(std::vector<std::uint8_t>(span, span + 6),
            (std::vector<std::uint8_t>{0xFF, 0xFF, 0, 0, 0, 0}));
  EXPECT_EQ(nvm.read_i32(a + 8), 0x0000FFFF);
  EXPECT_EQ(nvm.allocated(), 10u);  // reads allocate nothing
}

TEST(Nvm, WriteToLastByteWithNothingAllocatedReadsBack) {
  Nvm nvm(1024);
  const std::uint8_t byte[1] = {0x5A};
  EXPECT_NO_THROW(nvm.write(1023, byte));
  EXPECT_EQ(nvm.peek(1023), 0x5A);
  EXPECT_EQ(nvm.peek(1022), 0);
  EXPECT_EQ(nvm.read_i16(1022), 0x5A00);
  EXPECT_EQ(nvm.allocated(), 0u);
  EXPECT_THROW(nvm.write(1024, byte), std::out_of_range);
  EXPECT_THROW((void)nvm.peek(1024), std::out_of_range);
}

// The lockstep cohort caches raw_storage() when it is built, so growing
// the zero-filled extent must never move the store.
TEST(Nvm, RawStorageNeverMoves) {
  Nvm nvm(512 * 1024);
  const std::uint8_t* const raw = nvm.raw_storage();
  ASSERT_NE(raw, nullptr);
  Address last = 0;
  for (std::size_t bytes : {100u, 4096u, 60000u, 7u}) {
    last = nvm.allocate(bytes);
    EXPECT_EQ(nvm.raw_storage(), raw);
  }
  nvm.write_i32(500 * 1024, 1);  // far past the allocated extent
  EXPECT_EQ(nvm.raw_storage(), raw);
  const std::int16_t value = -4242;
  std::memcpy(nvm.raw_storage() + last, &value, 2);
  EXPECT_EQ(nvm.read_i16(last), -4242);

  Nvm moved(std::move(nvm));
  EXPECT_EQ(moved.raw_storage(), raw);
  EXPECT_EQ(moved.read_i16(last), -4242);
}

TEST(Nvm, ResetZeroesWritesPastTheAllocatedExtent) {
  Nvm nvm(1024);
  const Address a = nvm.allocate(8);
  nvm.write_i32(a, 0x12345678);
  nvm.write_i32(800, 0x0BADF00D);  // written, never allocated
  nvm.reset();
  EXPECT_EQ(nvm.allocated(), 0u);
  EXPECT_EQ(nvm.read_i32(a), 0);
  EXPECT_EQ(nvm.read_i32(800), 0);
  EXPECT_EQ(nvm.peek(803), 0);
}

// A read past the extent hands the corruption model the bytes the image
// holds there (zeros), so fault streams advance exactly as over cells
// that were explicitly zeroed.
TEST(Nvm, ReadFaultsPastTheExtentMatchZeroedCells) {
  CorruptionConfig cfg;
  cfg.seed = 13;
  cfg.read_ber = 0.25;
  cfg.stuck.push_back({/*addr=*/40, /*bit=*/3, /*value=*/true});
  const auto run = [&](bool zero_first) {
    Nvm nvm(256);
    if (zero_first) {
      nvm.write(0, std::vector<std::uint8_t>(256, 0));
    }
    CorruptionModel model(cfg);
    nvm.set_corruption(&model);
    std::vector<std::uint8_t> bytes(64);
    nvm.read(8, bytes);
    const std::int16_t i16 = nvm.read_i16(100);
    const std::uint32_t u32 = nvm.read_u32(200);
    nvm.set_corruption(nullptr);
    return std::make_tuple(bytes, i16, u32, model.read_flips());
  };
  const auto zeroed = run(true);
  EXPECT_EQ(run(false), zeroed);
  EXPECT_GT(std::get<3>(zeroed), 0u);
  EXPECT_NE(std::get<0>(zeroed)[40 - 8] & 0x08, 0);  // the stuck bit
}

TEST(WriteBatch, TracksPartsAndTotalBytes) {
  WriteBatch batch;
  EXPECT_TRUE(batch.empty());
  batch.push_i16(10, -5);
  batch.push_i32(20, 123456);
  batch.push_u32(30, 99u);
  EXPECT_EQ(batch.total_bytes(), 10u);
  EXPECT_FALSE(batch.empty());
  batch.clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.total_bytes(), 0u);
}

TEST(WriteBatch, CoalescesContiguousPushes) {
  WriteBatch batch;
  batch.push_i16(10, 1);
  batch.push_i16(12, 2);  // contiguous with the previous part
  batch.push_i16(20, 3);  // gap: new part
  EXPECT_EQ(batch.parts(), 2u);
  EXPECT_EQ(batch.total_bytes(), 6u);
}

TEST(WriteBatch, ForPrefixTruncatesTheStraddlingPart) {
  WriteBatch batch;
  const std::uint8_t a[4] = {1, 2, 3, 4};
  const std::uint8_t b[4] = {5, 6, 7, 8};
  batch.push_bytes(0, a);
  batch.push_bytes(100, b);

  std::vector<std::pair<std::size_t, std::size_t>> seen;  // (addr, len)
  batch.for_prefix(6, [&](std::size_t addr,
                          std::span<const std::uint8_t> bytes) {
    seen.emplace_back(addr, bytes.size());
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], std::make_pair(std::size_t{0}, std::size_t{4}));
  EXPECT_EQ(seen[1], std::make_pair(std::size_t{100}, std::size_t{2}));

  seen.clear();
  batch.for_prefix(0, [&](std::size_t addr,
                          std::span<const std::uint8_t> bytes) {
    seen.emplace_back(addr, bytes.size());
  });
  EXPECT_TRUE(seen.empty());
}

TEST(CorruptionModel, WriteFaultsAreDeterministicPerSeed) {
  CorruptionConfig cfg;
  cfg.seed = 11;
  cfg.write_ber = 0.01;

  const auto run = [&](std::size_t chunk) {
    Nvm nvm(4096);
    CorruptionModel model(cfg);
    nvm.set_corruption(&model);
    const Address a = nvm.allocate(4096);
    std::vector<std::uint8_t> zeros(chunk, 0);
    for (std::size_t off = 0; off < 4096; off += chunk) {
      nvm.write(a + off, zeros);
    }
    nvm.set_corruption(nullptr);
    std::vector<std::uint8_t> out(4096);
    nvm.read(a, out);
    return out;
  };

  // Identical fault positions regardless of access chunking.
  const auto bytewise = run(1);
  EXPECT_EQ(bytewise, run(64));
  EXPECT_EQ(bytewise, run(4096));

  std::size_t flipped = 0;
  for (std::uint8_t byte : bytewise) {
    flipped += static_cast<std::size_t>(byte != 0);
  }
  EXPECT_GT(flipped, 0u);      // ~327 expected bit flips
  EXPECT_LT(flipped, 1500u);   // far below saturation
}

TEST(CorruptionModel, ReadFaultsAreTransient) {
  CorruptionConfig cfg;
  cfg.seed = 3;
  cfg.read_ber = 0.5;
  Nvm nvm(64);
  CorruptionModel model(cfg);
  const Address a = nvm.allocate(64);
  nvm.write_u32(a, 0xAABBCCDDu);
  nvm.set_corruption(&model);
  std::uint32_t corrupted = nvm.read_u32(a);
  // 32 bits at BER 0.5: astronomically unlikely to read back clean.
  EXPECT_NE(corrupted, 0xAABBCCDDu);
  EXPECT_GT(model.read_flips(), 0u);
  nvm.set_corruption(nullptr);
  EXPECT_EQ(nvm.read_u32(a), 0xAABBCCDDu);  // the cell kept its value
}

TEST(CorruptionModel, WindowConfinesBerFaults) {
  CorruptionConfig cfg;
  cfg.seed = 5;
  cfg.write_ber = 0.2;
  cfg.window_begin = 100;
  cfg.window_end = 200;
  Nvm nvm(1024);
  CorruptionModel model(cfg);
  nvm.set_corruption(&model);
  const Address a = nvm.allocate(1024);
  std::vector<std::uint8_t> zeros(1024, 0);
  nvm.write(a, zeros);
  nvm.set_corruption(nullptr);
  std::vector<std::uint8_t> out(1024);
  nvm.read(a, out);
  std::size_t inside = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const bool in_window = a + i >= 100 && a + i < 200;
    if (!in_window) {
      EXPECT_EQ(out[i], 0) << "BER fault escaped the window at " << i;
    } else {
      inside += static_cast<std::size_t>(out[i] != 0);
    }
  }
  EXPECT_GT(inside, 0u);
}

TEST(CorruptionModel, StuckCellForcesStoreAndLoad) {
  CorruptionConfig cfg;
  cfg.stuck.push_back({/*addr=*/8, /*bit=*/0, /*value=*/true});
  cfg.stuck.push_back({/*addr=*/9, /*bit=*/7, /*value=*/false});
  Nvm nvm(64);
  CorruptionModel model(cfg);
  nvm.set_corruption(&model);
  const Address a = nvm.allocate(16);
  ASSERT_EQ(a, 0u);
  nvm.write_i16(8, 0);
  EXPECT_EQ(nvm.peek(8) & 1, 1);  // stored with the bit forced on
  nvm.write_i16(8, static_cast<std::int16_t>(0xFFFF));
  EXPECT_EQ(nvm.peek(9) & 0x80, 0);
  // The read path forces the bits too, even for untouched cells.
  std::uint8_t raw[2] = {};
  nvm.read(8, raw);
  EXPECT_EQ(raw[0] & 1, 1);
  EXPECT_EQ(raw[1] & 0x80, 0);
  EXPECT_GT(model.stuck_hits(), 0u);
  nvm.set_corruption(nullptr);
}

TEST(CorruptionModel, PeekBypassesReadCorruption) {
  CorruptionConfig cfg;
  cfg.seed = 9;
  cfg.read_ber = 1.0;
  Nvm nvm(64);
  CorruptionModel model(cfg);
  const Address a = nvm.allocate(4);
  nvm.write(a, std::vector<std::uint8_t>{0x5A});
  nvm.set_corruption(&model);
  EXPECT_EQ(nvm.peek(a), 0x5A);  // raw cell, no read-path faults
  std::uint8_t corrupted[1];
  nvm.read(a, corrupted);
  EXPECT_EQ(corrupted[0], 0xA5);  // BER 1.0 flips every bit
  nvm.set_corruption(nullptr);
}

TEST(CorruptionModel, RejectsInvalidConfig) {
  CorruptionConfig bad_ber;
  bad_ber.write_ber = 1.5;
  EXPECT_THROW(CorruptionModel{bad_ber}, std::invalid_argument);
  CorruptionConfig bad_bit;
  bad_bit.stuck.push_back({0, /*bit=*/8, true});
  EXPECT_THROW(CorruptionModel{bad_bit}, std::invalid_argument);
}

}  // namespace
}  // namespace iprune::device
