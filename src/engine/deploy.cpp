#include "engine/deploy.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "device/crc16.hpp"
#include "engine/backend.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"

namespace iprune::engine {

namespace {

const nn::Tensor& layer_weight(const LoweredNode& ln) {
  if (ln.kind == LoweredKind::kGemmConv) {
    return static_cast<nn::Conv2d&>(*ln.layer).weight();
  }
  return static_cast<nn::Dense&>(*ln.layer).weight();
}

const nn::Tensor& layer_mask(const LoweredNode& ln) {
  if (ln.kind == LoweredKind::kGemmConv) {
    return static_cast<nn::Conv2d&>(*ln.layer).weight_mask();
  }
  return static_cast<nn::Dense&>(*ln.layer).weight_mask();
}

const nn::Tensor& layer_bias(const LoweredNode& ln) {
  if (ln.kind == LoweredKind::kGemmConv) {
    return static_cast<nn::Conv2d&>(*ln.layer).bias();
  }
  return static_cast<nn::Dense&>(*ln.layer).bias();
}

/// Host byte image of an integer array as the engine lays it out in NVM
/// (element-wise memcpy of the narrowed value, matching write_i16/_i32).
template <typename Narrow, typename Wide>
std::vector<std::uint8_t> pack_array(const std::vector<Wide>& values) {
  std::vector<std::uint8_t> bytes(values.size() * sizeof(Narrow));
  for (std::size_t i = 0; i < values.size(); ++i) {
    const Narrow v = static_cast<Narrow>(values[i]);
    std::memcpy(bytes.data() + i * sizeof(Narrow), &v, sizeof(Narrow));
  }
  return bytes;
}

}  // namespace

DeployedModel::DeployedModel(nn::Graph& graph, const EngineConfig& config,
                             device::Msp430Device& device,
                             const nn::Tensor& calibration_batch)
    : DeployedModel(graph, config, device.config().memory, device.nvm(),
                    calibration_batch) {}

DeployedModel::DeployedModel(nn::Graph& graph, const EngineConfig& config,
                             Backend& backend,
                             const nn::Tensor& calibration_batch)
    : DeployedModel(graph, config, backend.config().memory, backend.nvm(),
                    calibration_batch) {}

DeployedModel::DeployedModel(nn::Graph& graph, const EngineConfig& config,
                             const device::MemoryConfig& memory,
                             device::Nvm& nvm,
                             const nn::Tensor& calibration_batch)
    : config_(config) {
  // The protected progress indicator is a 6-byte CRC-sealed record; every
  // engine charge formula picks the widening up through counter_bytes.
  if (config_.integrity.protect_progress) {
    config_.counter_bytes = kProgressRecordBytes;
  }
  lowered_ = lower_graph(graph, config_, memory);
  const CalibrationTable calib =
      calibrate(graph, lowered_, calibration_batch);

  nodes_.resize(lowered_.nodes.size());

  const std::size_t progress_bytes =
      config_.integrity.protect_progress ? kProgressRegionBytes : 8;
  progress_addr_ = nvm.allocate(progress_bytes);
  record("progress", progress_addr_, progress_bytes);

  std::size_t max_psum_bytes = 0;
  for (nn::NodeId id = 0; id < lowered_.nodes.size(); ++id) {
    const LoweredNode& ln = lowered_.nodes[id];
    NodeDeployment& nd = nodes_[id];
    nd.scale = calib.scale(id);

    // Activation buffer: aliases reuse their input's buffer.
    if (ln.kind == LoweredKind::kAlias && id != 0) {
      nd.buffer = nodes_[ln.inputs[0]].buffer;
    } else {
      nd.buffer = nvm.allocate(ln.out_elems * 2);
      record(ln.name + ".ofm", nd.buffer, ln.out_elems * 2);
    }

    if (!ln.is_gemm()) {
      continue;
    }

    // Quantize the (masked) weights and pack them into BSR.
    auto gd = std::make_unique<GemmDeployment>();
    nn::Tensor masked = layer_weight(ln);
    masked.hadamard(layer_mask(ln));
    const nn::QTensor wq = nn::quantize_q15(masked);
    gd->weight_scale = wq.scale;
    const BlockMask bmask = BlockMask::from_dense(layer_mask(ln), ln.plan);
    gd->bsr = BsrMatrix::build(wq, bmask, ln.plan);

    // Bias in the psum domain; requantization multiplier to the output
    // scale (see engine.cpp for the fixed-point pipeline).
    const float s_in = nodes_[ln.inputs[0]].scale;
    const float psum_unit = s_in * gd->weight_scale * 32768.0f;
    const nn::Tensor& bias = layer_bias(ln);
    gd->bias_q.resize(bias.numel());
    for (std::size_t i = 0; i < bias.numel(); ++i) {
      gd->bias_q[i] =
          static_cast<std::int32_t>(std::lround(bias[i] / psum_unit));
    }
    gd->multiplier = psum_unit / nd.scale;

    // Write the arrays into NVM (sealing each region when configured).
    // A fully pruned layer keeps no blocks: its value region is empty.
    gd->values_addr = write_region(ln.name + ".bsr_values", nvm,
                                   pack_array<std::int16_t>(gd->bsr.values()));
    gd->colidx_addr = write_region(
        ln.name + ".bsr_colidx", nvm,
        pack_array<std::int16_t>(gd->bsr.col_idx()));
    gd->rowptr_addr = write_region(
        ln.name + ".bsr_rowptr", nvm,
        pack_array<std::int16_t>(gd->bsr.row_ptr()));
    gd->bias_addr = write_region(ln.name + ".bias", nvm,
                                 pack_array<std::int32_t>(gd->bias_q));

    max_psum_bytes = std::max(
        max_psum_bytes, ln.plan.rows * ln.plan.cols * config_.psum_bytes);
    nd.gemm = std::move(gd);
  }

  // Protected progress double-buffers the NVM partial sums: a torn commit
  // corrupts at most the slot being written, never the slot the recovery
  // re-execution reads its inputs from.
  psum_slots_ = config_.integrity.protect_progress ? 2 : 1;
  psum_stride_ = max_psum_bytes;
  if (max_psum_bytes > 0) {
    psum_addr_ = nvm.allocate(max_psum_bytes * psum_slots_);
    record("psum_scratch", psum_addr_, max_psum_bytes * psum_slots_);
  }

  // The checksum table itself goes last: 2 bytes (LE) per sealed region,
  // in regions() order.
  if (sealed_count_ > 0) {
    crc_table_addr_ = nvm.allocate(sealed_count_ * 2);
    record("crc_table", crc_table_addr_, sealed_count_ * 2);
    std::size_t k = 0;
    for (const Region& r : regions_) {
      if (!r.sealed) {
        continue;
      }
      const std::uint8_t entry[2] = {
          static_cast<std::uint8_t>(r.crc),
          static_cast<std::uint8_t>(r.crc >> 8)};
      nvm.write(crc_table_addr_ + k * 2, entry);
      ++k;
    }
  }
}

device::Address DeployedModel::write_region(
    const std::string& label, device::Nvm& nvm,
    std::span<const std::uint8_t> bytes) {
  const device::Address addr = nvm.allocate(bytes.size());
  nvm.write(addr, bytes);
  record(label, addr, bytes.size());
  if (config_.integrity.seal_regions) {
    regions_.back().sealed = true;
    // CRC of the *intended* contents (like a toolchain sealing the image
    // it burns) — deploy-time write corruption is therefore scrubbed too.
    regions_.back().crc = device::crc16_ccitt(bytes);
    ++sealed_count_;
  }
  return addr;
}

std::uint32_t DeployedModel::read_progress(const device::Nvm& nvm) const {
  if (!config_.integrity.protect_progress) {
    std::uint8_t raw[4];
    for (std::size_t i = 0; i < 4; ++i) {
      raw[i] = nvm.peek(progress_addr_ + i);
    }
    std::uint32_t value = 0;
    std::memcpy(&value, raw, 4);
    return value;
  }
  std::optional<std::uint32_t> newest;
  for (std::size_t slot = 0; slot < 2; ++slot) {
    std::array<std::uint8_t, kProgressRecordBytes> record{};
    for (std::size_t i = 0; i < kProgressRecordBytes; ++i) {
      record[i] = nvm.peek(progress_addr_ + slot * kProgressSlotStride + i);
    }
    const std::optional<std::uint32_t> counter =
        decode_progress_record(record);
    if (counter && (!newest || *counter > *newest)) {
      newest = counter;
    }
  }
  if (!newest) {
    throw IntegrityError("both progress records are corrupt");
  }
  return *newest;
}

std::vector<std::string> DeployedModel::scrub_errors(
    const device::Nvm& nvm) const {
  std::vector<std::string> bad;
  std::size_t k = 0;
  std::vector<std::uint8_t> bytes;
  for (const Region& r : regions_) {
    if (!r.sealed) {
      continue;
    }
    bytes.resize(r.bytes);
    for (std::size_t i = 0; i < r.bytes; ++i) {
      bytes[i] = nvm.peek(r.begin + i);
    }
    const std::uint16_t crc = device::crc16_ccitt(bytes);
    const std::uint16_t stored = static_cast<std::uint16_t>(
        nvm.peek(crc_table_addr_ + k * 2) |
        (nvm.peek(crc_table_addr_ + k * 2 + 1) << 8));
    if (crc != stored) {
      bad.push_back(r.label);
    }
    ++k;
  }
  return bad;
}

void DeployedModel::record(std::string label, device::Address begin,
                           std::size_t bytes) {
  regions_.push_back({std::move(label), begin, bytes});
}

std::string DeployedModel::validate_layout(const device::Nvm& nvm) const {
  std::vector<Region> sorted = regions_;
  std::sort(sorted.begin(), sorted.end(),
            [](const Region& a, const Region& b) {
              return a.begin < b.begin;
            });
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const Region& r = sorted[i];
    if (r.begin + r.bytes > nvm.capacity()) {
      return r.label + " exceeds NVM capacity";
    }
    if (i > 0) {
      const Region& prev = sorted[i - 1];
      if (prev.begin + prev.bytes > r.begin) {
        return prev.label + " overlaps " + r.label;
      }
    }
  }
  return {};
}

std::size_t DeployedModel::model_bytes() const {
  std::size_t total = 0;
  for (const NodeDeployment& nd : nodes_) {
    if (nd.gemm != nullptr) {
      total += nd.gemm->device_bytes();
    }
  }
  return total;
}

std::size_t DeployedModel::total_macs() const {
  std::size_t total = 0;
  for (nn::NodeId id = 0; id < lowered_.nodes.size(); ++id) {
    const LoweredNode& ln = lowered_.nodes[id];
    if (!ln.is_gemm()) {
      continue;
    }
    const BlockMask bmask = BlockMask::from_dense(layer_mask(ln), ln.plan);
    total += count_macs(ln.plan, bmask);
  }
  return total;
}

std::size_t DeployedModel::total_acc_outputs() const {
  std::size_t total = 0;
  for (nn::NodeId id = 0; id < lowered_.nodes.size(); ++id) {
    const LoweredNode& ln = lowered_.nodes[id];
    if (!ln.is_gemm()) {
      continue;
    }
    const BlockMask bmask = BlockMask::from_dense(layer_mask(ln), ln.plan);
    total += count_accelerator_outputs(ln.plan, bmask);
  }
  return total;
}

}  // namespace iprune::engine
