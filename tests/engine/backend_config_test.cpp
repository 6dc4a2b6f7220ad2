// BackendConfig preset round-trips, make_backend construction semantics,
// and the functional backend's no-power contract (docs/backends.md).

#include <gtest/gtest.h>

#include <stdexcept>

#include "device/nvm.hpp"
#include "engine/backend.hpp"
#include "power/supply.hpp"

namespace iprune {
namespace {

using engine::Backend;
using engine::BackendConfig;
using engine::BackendKind;

TEST(BackendConfig, PresetsRoundTripThroughDescribeParse) {
  for (const BackendConfig& cfg :
       {BackendConfig::msp430_fram(), BackendConfig::functional(),
        BackendConfig::reram(), BackendConfig::stt_mram()}) {
    const BackendConfig reparsed = BackendConfig::parse(cfg.describe());
    EXPECT_EQ(reparsed, cfg) << cfg.describe();
    // Byte round-trip of the canonical token itself.
    EXPECT_EQ(reparsed.describe(), cfg.describe());
  }
}

TEST(BackendConfig, UnknownPresetMessageIsPinned) {
  try {
    BackendConfig::parse("fram2000");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "backend: unknown preset 'fram2000'");
  }
}

TEST(BackendConfig, PresetsAreDistinct) {
  const BackendConfig presets[] = {
      BackendConfig::msp430_fram(), BackendConfig::functional(),
      BackendConfig::reram(), BackendConfig::stt_mram()};
  for (std::size_t i = 0; i < std::size(presets); ++i) {
    for (std::size_t j = i + 1; j < std::size(presets); ++j) {
      EXPECT_NE(presets[i], presets[j])
          << presets[i].describe() << " vs " << presets[j].describe();
    }
  }
}

TEST(BackendConfig, EqualityIsSensitiveToCostConstants) {
  BackendConfig a = BackendConfig::msp430_fram();
  BackendConfig b = a;
  EXPECT_EQ(a, b);
  b.device.dma.write_us_per_byte *= 2.0;
  EXPECT_NE(a, b);
}

TEST(MakeBackend, BuildsTheDeclaredKind) {
  EXPECT_EQ(engine::make_backend(BackendConfig::msp430_fram())->kind(),
            BackendKind::kCycle);
  EXPECT_EQ(engine::make_backend(BackendConfig::functional())->kind(),
            BackendKind::kFunctional);
  EXPECT_EQ(engine::make_backend(BackendConfig::reram())->kind(),
            BackendKind::kCustom);
  EXPECT_EQ(engine::make_backend(BackendConfig::stt_mram())->kind(),
            BackendKind::kCustom);
}

TEST(MakeBackend, CustomBackendCarriesSubstitutedConstants) {
  const std::unique_ptr<Backend> backend =
      engine::make_backend(BackendConfig::reram());
  EXPECT_EQ(backend->config().dma.read_us_per_byte, 0.1);
  EXPECT_EQ(backend->config().dma.write_us_per_byte, 1.0);
  EXPECT_EQ(backend->spec().preset, "reram");
  // Custom backends keep the full cycle-class power model.
  EXPECT_NE(backend->power(), nullptr);
}

TEST(CycleBackend, RejectsTheFunctionalSpec) {
  EXPECT_THROW(engine::CycleBackend(BackendConfig::functional(), nullptr),
               std::invalid_argument);
}

TEST(FunctionalBackend, HasNoPowerModelAndNeverFails) {
  const std::unique_ptr<Backend> backend =
      engine::make_backend(BackendConfig::functional());
  EXPECT_EQ(backend->power(), nullptr);
  EXPECT_EQ(backend->now_us(), 0.0);
  EXPECT_EQ(backend->vm_epoch(), 0u);

  EXPECT_TRUE(backend->dma_read(64));
  EXPECT_TRUE(backend->dma_write(64));
  EXPECT_TRUE(backend->lea_op(100));
  EXPECT_TRUE(backend->cpu_work(1000));
  EXPECT_TRUE(backend->pipelined_job(100, 64, 10));
  // The clock never advances, whatever the traffic.
  EXPECT_EQ(backend->now_us(), 0.0);
  // Traffic is still accounted so work-volume reasoning survives.
  EXPECT_EQ(backend->stats().nvm_bytes_read, 64u);
  EXPECT_EQ(backend->stats().nvm_bytes_written, 128u);
  EXPECT_EQ(backend->stats().macs, 200u);
}

TEST(FunctionalBackend, StagedCommitsLandWhole) {
  const std::unique_ptr<Backend> backend =
      engine::make_backend(BackendConfig::functional());
  const device::Address addr = backend->nvm().allocate(8);

  device::WriteBatch batch;
  const std::uint8_t payload[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  batch.push_bytes(addr, payload);
  ASSERT_TRUE(backend->dma_commit(batch, 8));
  EXPECT_EQ(backend->last_staged_kept(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(backend->nvm().peek(addr + i), payload[i]);
  }
}

}  // namespace
}  // namespace iprune
