#include "engine/engine.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <vector>

#include "device/crc16.hpp"
#include "util/scratch_pool.hpp"

namespace iprune::engine {

namespace {

/// Per-op retry safety net: with sane configs every retry makes progress
/// (the recharged buffer dwarfs one fetch+job); this guard turns a
/// misconfiguration into a diagnosis instead of a hang.
constexpr std::size_t kMaxOpRetries = 100000;

[[noreturn]] void retry_overflow(const std::string& where) {
  throw std::runtime_error(
      "IntermittentEngine: " + where +
      " exceeded the retry budget — a single operation cannot complete "
      "within one power cycle (enlarge the capacitor or shrink tiles)");
}

/// Q15 rounding shift: psum domain value of an accumulated Q30 product.
std::int32_t shift_round_q15(std::int64_t acc) {
  return static_cast<std::int32_t>((acc + 16384) >> 15);
}

std::int16_t clamp_i16(long v) {
  if (v > 32767) {
    return 32767;
  }
  if (v < -32768) {
    return -32768;
  }
  return static_cast<std::int16_t>(v);
}

/// Hoisted im2col gather geometry for one k-tile of a node. The naive
/// gather recomputed the full div/mod decomposition of (k, s) for every
/// MAC; here the per-k part (input plane + kernel offsets) is tabulated
/// once per BSR block and the per-column part (oy, ox) once per output
/// element. Only pure index arithmetic moves: each read() still issues
/// the same Nvm::read_i16 at the same address in the same order as the
/// naive per-element gather did, which the stateful CorruptionModel
/// fault streams depend on.
class TileGather {
 public:
  TileGather(const LoweredNode& ln, device::Nvm& nvm, device::Address in_buf,
             std::size_t k0, std::size_t bk)
      : nvm_(nvm), in_buf_(in_buf), k0_(k0) {
    if (ln.kind == LoweredKind::kGemmDense) {
      return;
    }
    geom_ = &ln.conv;
    const ConvGeometry& g = *geom_;
    const std::size_t kernel = g.kernel_h * g.kernel_w;
    rows_ = util::ScratchPool::local().acquire<KRow>(bk);
    for (std::size_t kk = 0; kk < bk; ++kk) {
      const std::size_t k = k0 + kk;
      const std::size_t cin = k / kernel;
      const std::size_t rem = k % kernel;
      rows_[kk] = KRow{
          cin * g.in_h * g.in_w,
          static_cast<std::ptrdiff_t>(rem / g.kernel_w) -
              static_cast<std::ptrdiff_t>(g.pad_h),
          static_cast<std::ptrdiff_t>(rem % g.kernel_w) -
              static_cast<std::ptrdiff_t>(g.pad_w)};
    }
  }

  /// Fix the output column for subsequent read() calls.
  void set_column(std::size_t s) {
    if (geom_ == nullptr) {
      return;
    }
    sy_ = static_cast<std::ptrdiff_t>((s / geom_->out_w) * geom_->stride);
    sx_ = static_cast<std::ptrdiff_t>((s % geom_->out_w) * geom_->stride);
  }

  /// Input element for lowered row k0 + kk at the column set above.
  std::int16_t read(std::size_t kk) const {
    if (geom_ == nullptr) {
      return nvm_.read_i16(in_buf_ + (k0_ + kk) * 2);
    }
    const KRow& row = rows_[kk];
    const std::ptrdiff_t iy = sy_ + row.off_y;
    const std::ptrdiff_t ix = sx_ + row.off_x;
    if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(geom_->in_h) || ix < 0 ||
        ix >= static_cast<std::ptrdiff_t>(geom_->in_w)) {
      return 0;  // zero padding, no NVM traffic (same as the naive gather)
    }
    const std::size_t index = row.plane +
                              static_cast<std::size_t>(iy) * geom_->in_w +
                              static_cast<std::size_t>(ix);
    return nvm_.read_i16(in_buf_ + index * 2);
  }

 private:
  struct KRow {
    std::size_t plane;     // cin * in_h * in_w
    std::ptrdiff_t off_y;  // khi - pad_h
    std::ptrdiff_t off_x;  // kwi - pad_w
  };

  device::Nvm& nvm_;
  device::Address in_buf_;
  std::size_t k0_ = 0;
  const ConvGeometry* geom_ = nullptr;
  util::Scratch<KRow> rows_;
  std::ptrdiff_t sy_ = 0;
  std::ptrdiff_t sx_ = 0;
};

}  // namespace

IntermittentEngine::IntermittentEngine(DeployedModel& model,
                                       Backend& backend)
    : model_(model), backend_(backend), config_(model.config()) {}

IntermittentEngine::IntermittentEngine(DeployedModel& model,
                                       device::Msp430Device& device)
    : model_(model),
      owned_backend_(std::make_unique<CycleBackend>(device)),
      backend_(*owned_backend_),
      config_(model.config()) {}

std::int16_t IntermittentEngine::requantize(std::int64_t psum,
                                            float multiplier, bool relu) {
  const long v = std::lround(static_cast<double>(psum) *
                             static_cast<double>(multiplier));
  std::int16_t q = clamp_i16(v);
  if (relu && q < 0) {
    q = 0;
  }
  return q;
}

device::Address IntermittentEngine::psum_slot_addr(std::size_t chain_slot,
                                                   std::size_t offset) const {
  const std::size_t parity = chain_slot % model_.psum_slots();
  return model_.psum_addr() + parity * model_.psum_stride() + offset;
}

void IntermittentEngine::stage_progress(device::WriteBatch& batch) const {
  const std::uint32_t next = job_counter_ + 1;
  if (model_.protected_progress()) {
    batch.push_bytes(
        model_.progress_addr() + progress_slot(next) * kProgressSlotStride,
        encode_progress_record(next));
  } else {
    batch.push_u32(model_.progress_addr(), next);
  }
}

void IntermittentEngine::note_commit() {
  ++job_counter_;
  if (probe_ != nullptr) {
    probe_->on_commit(job_counter_);
  }
  if (backend_.trace_enabled()) {
    telemetry::TraceSink& sink = backend_.trace_sink();
    telemetry::Event event;
    event.cls = telemetry::EventClass::kProgressCommit;
    event.phase = telemetry::EventPhase::kInstant;
    event.t_us = backend_.now_us();
    event.bytes = config_.counter_bytes;
    event.seq = job_counter_;
    sink.record(event);
  }
}

void IntermittentEngine::emit_integrity_event(const std::string& name,
                                              std::uint64_t seq) {
  if (!backend_.trace_enabled()) {
    return;
  }
  telemetry::TraceSink& sink = backend_.trace_sink();
  telemetry::Event event;
  event.cls = telemetry::EventClass::kIntegrity;
  event.phase = telemetry::EventPhase::kInstant;
  event.t_us = backend_.now_us();
  event.name = name;
  event.seq = seq;
  sink.record(event);
}

bool IntermittentEngine::recover_progress() {
  if (!model_.protected_progress()) {
    if (!backend_.dma_read(8)) {  // progress indicator re-read
      return false;
    }
    const std::uint32_t persisted =
        backend_.nvm().read_u32(model_.progress_addr());
    if (persisted != job_counter_) {
      throw std::runtime_error(
          "IntermittentEngine: progress counter mismatch after recovery — "
          "NVM holds " + std::to_string(persisted) +
          " but the engine committed " + std::to_string(job_counter_) +
          " jobs (crash-consistency violation: a commit was torn, skipped "
          "or reordered)");
    }
    if (probe_ != nullptr) {
      probe_->on_recovery(persisted, backend_.vm_epoch());
    }
    pending_recovery_ = false;
    return true;
  }

  // Protected path: re-read both commit records, decoding each against
  // its CRC. One bounded re-read clears transient read faults (a stuck or
  // torn record stays invalid the second time too).
  const auto read_slots = [this](std::optional<std::uint32_t>* slots) {
    std::uint8_t raw[kProgressRecordBytes];
    for (std::size_t s = 0; s < 2; ++s) {
      backend_.nvm().read(
          model_.progress_addr() + s * kProgressSlotStride, raw);
      slots[s] = decode_progress_record(raw);
    }
  };
  if (!backend_.dma_read(2 * kProgressRecordBytes)) {
    return false;
  }
  std::optional<std::uint32_t> slots[2];
  read_slots(slots);
  if (!slots[0] || !slots[1]) {
    if (!backend_.dma_read(2 * kProgressRecordBytes)) {
      return false;
    }
    read_slots(slots);
  }
  if (!slots[0] && !slots[1]) {
    throw IntegrityError(
        "both progress records are corrupt after a power failure — the "
        "resume point is unrecoverable (job counter was " +
        std::to_string(job_counter_) + ")");
  }
  const std::uint32_t newest =
      std::max(slots[0].value_or(0), slots[1].value_or(0));
  // Only two cleanly decoded records that BOTH lag the engine's count
  // prove a lost commit (true consistency violation). With a corrupt
  // slot, the stale-looking survivor just means the newest record is the
  // unreadable one — fall through to the rollback path instead.
  if (slots[0] && slots[1] && newest < job_counter_) {
    throw std::runtime_error(
        "IntermittentEngine: progress counter mismatch after recovery — "
        "NVM holds " + std::to_string(newest) +
        " but the engine committed " + std::to_string(job_counter_) +
        " jobs (crash-consistency violation: a commit was torn, skipped "
        "or reordered)");
  }
  // An invalid slot is the in-flight record the outage tore; newest >
  // job_counter_ is the rarer tear whose garbage happened to pass the
  // CRC. Either way the older record is the true resume point — roll
  // back to job_counter_ and let re-execution overwrite the bad slot.
  if (!slots[0] || !slots[1] || newest > job_counter_) {
    ++active_stats_->integrity_rollbacks;
    emit_integrity_event("progress_rollback", job_counter_);
  }
  if (probe_ != nullptr) {
    probe_->on_recovery(job_counter_, backend_.vm_epoch());
  }
  pending_recovery_ = false;
  return true;
}

bool IntermittentEngine::scrub_regions() {
  std::size_t k = 0;
  std::vector<std::uint8_t> bytes;
  for (const DeployedModel::Region& r : model_.regions()) {
    if (!r.sealed) {
      continue;
    }
    if (!backend_.dma_read(r.bytes + 2)) {  // region + its checksum word
      return false;
    }
    bytes.resize(r.bytes);
    backend_.nvm().read(r.begin, bytes);
    const std::uint16_t crc = device::crc16_ccitt(bytes);
    std::uint8_t entry[2];
    backend_.nvm().read(model_.crc_table_addr() + k * 2, entry);
    const std::uint16_t stored =
        static_cast<std::uint16_t>(entry[0] | (entry[1] << 8));
    if (crc != stored) {
      ++active_stats_->scrub_failures;
      emit_integrity_event("scrub_fail:" + r.label, k);
      throw IntegrityError(
          "boot scrub: region '" + r.label + "' fails its CRC (stored " +
          std::to_string(stored) + ", computed " + std::to_string(crc) +
          ") — deployed model state is corrupt");
    }
    ++k;
  }
  return true;
}

void IntermittentEngine::emit_scope(telemetry::EventClass cls,
                                    telemetry::EventPhase phase,
                                    const std::string& name,
                                    std::uint64_t seq) {
  if (!backend_.trace_enabled()) {
    return;
  }
  telemetry::TraceSink& sink = backend_.trace_sink();
  telemetry::Event event;
  event.cls = cls;
  event.phase = phase;
  event.t_us = backend_.now_us();
  event.name = name;
  event.seq = seq;
  sink.record(event);
}

bool IntermittentEngine::charge_input_tile_reads(const LoweredNode& ln,
                                                 std::size_t bk_actual,
                                                 std::size_t bc_actual) {
  if (ln.kind == LoweredKind::kGemmDense) {
    return backend_.dma_read(bk_actual * 2);
  }
  // Conv gather: one strided DMA command per tile row (each row of the
  // im2col tile maps to a constant-stride walk of the input buffer).
  for (std::size_t row = 0; row < bk_actual; ++row) {
    if (!backend_.dma_read(bc_actual * 2)) {
      return false;
    }
  }
  return true;
}

bool IntermittentEngine::run_gemm(const LoweredNode& ln) {
  switch (config_.mode) {
    case PreservationMode::kImmediate:
      return run_gemm_immediate(ln);
    case PreservationMode::kTaskAtomic:
      return run_gemm_task(ln);
    case PreservationMode::kAccumulateInVm:
      return run_gemm_accumulate(ln);
  }
  return false;
}

bool IntermittentEngine::run_gemm_task(const LoweredNode& ln) {
  // SONIC/TAILS-style: one accelerator operation is an atomic task. All
  // of its outputs are computed into a VM double buffer and committed to
  // NVM in one batch together with the progress indicator (loop indices);
  // a power failure anywhere inside the task re-executes the whole task.
  const NodeDeployment& nd = model_.node(ln.node);
  const GemmDeployment& gd = *nd.gemm;
  const TilePlan& plan = ln.plan;
  const device::Address in_buf = model_.node(ln.inputs[0]).buffer;
  const device::Address out_buf = nd.buffer;
  device::Nvm& nvm = backend_.nvm();
  const bool relu = ln.relu_folded;

  auto tile =
      util::ScratchPool::local().acquire<std::int32_t>(plan.br * plan.bc);
  for (std::size_t rt = 0; rt < plan.row_tiles(); ++rt) {
    const std::size_t rows_in = plan.rows_in_tile(rt);
    const std::uint32_t begin = gd.bsr.row_begin(rt);
    const std::uint32_t end = gd.bsr.row_end(rt);

    if (begin == end) {
      // Bias-fill: one task per output tile.
      for (std::size_t ct = 0; ct < plan.col_tiles(); ++ct) {
        const std::size_t cols_in = plan.cols_in_tile(ct);
        const std::size_t jobs = rows_in * cols_in;
        emit_scope(telemetry::EventClass::kTile, telemetry::EventPhase::kBegin,
                   ln.name, rt * plan.col_tiles() + ct);
        std::size_t retries = 0;
        while (true) {
          if (++retries > kMaxOpRetries) {
            retry_overflow(ln.name + " bias-fill task");
          }
          if (pending_recovery_ && !recover_progress()) {
            continue;
          }
          if (!backend_.dma_read(rows_in * 4) ||
              !backend_.cpu_work(jobs * config_.cpu_cycles_per_job)) {
            pending_recovery_ = true;
            active_stats_->reexecuted_jobs += jobs;
            continue;
          }
          batch_.clear();
          for (std::size_t idx = 0; idx < jobs; ++idx) {
            const std::size_t r_global = rt * plan.br + idx / cols_in;
            const std::size_t c_global = ct * plan.bc + idx % cols_in;
            batch_.push_i16(out_buf + (r_global * plan.cols + c_global) * 2,
                            requantize(gd.bias_q[r_global], gd.multiplier,
                                       relu));
          }
          stage_progress(batch_);
          if (!backend_.dma_commit(batch_,
                                  jobs * 2 + config_.counter_bytes)) {
            pending_recovery_ = true;
            active_stats_->reexecuted_jobs += jobs;
            continue;
          }
          note_commit();
          active_stats_->acc_outputs += jobs;
          active_stats_->preserved_outputs += jobs;
          break;
        }
        emit_scope(telemetry::EventClass::kTile, telemetry::EventPhase::kEnd,
                   ln.name, rt * plan.col_tiles() + ct);
      }
      continue;
    }

    for (std::size_t ct = 0; ct < plan.col_tiles(); ++ct) {
      const std::size_t cols_in = plan.cols_in_tile(ct);
      const std::size_t jobs = rows_in * cols_in;
      emit_scope(telemetry::EventClass::kTile, telemetry::EventPhase::kBegin,
                 ln.name, rt * plan.col_tiles() + ct);
      for (std::uint32_t slot = begin; slot < end; ++slot) {
        const std::size_t kt = gd.bsr.col(slot);
        const bool first = slot == begin;
        const bool last = slot + 1 == end;
        const std::size_t ls = slot - begin;  // k-chain slot (psum parity)
        const std::size_t k0 = kt * plan.bk;
        const std::size_t bk_actual = plan.k_in_tile(kt);
        const std::int16_t* w_block = gd.bsr.block(slot);
        TileGather gather(ln, nvm, in_buf, k0, bk_actual);

        std::size_t retries = 0;
        while (true) {
          if (++retries > kMaxOpRetries) {
            retry_overflow(ln.name + " task");
          }
          if (pending_recovery_ && !recover_progress()) {
            continue;
          }
          if (!backend_.dma_read(2) || !backend_.dma_read(2) ||
              !backend_.dma_read(rows_in * bk_actual * 2) ||
              !charge_input_tile_reads(ln, bk_actual, cols_in) ||
              (!first && !backend_.dma_read(rows_in * cols_in * 4)) ||
              (last && !backend_.dma_read(rows_in * 4))) {
            pending_recovery_ = true;
            continue;
          }

          // Compute every job of the task into the VM double buffer.
          bool failed = false;
          for (std::size_t idx = 0; idx < jobs; ++idx) {
            const std::size_t r = idx / cols_in;
            const std::size_t c = idx % cols_in;
            const std::size_t r_global = rt * plan.br + r;
            const std::size_t c_global = ct * plan.bc + c;
            gather.set_column(c_global);
            std::int64_t acc = 0;
            for (std::size_t kk = 0; kk < bk_actual; ++kk) {
              acc += static_cast<std::int64_t>(gather.read(kk)) *
                     w_block[r * plan.bk + kk];
            }
            const std::int32_t contribution = shift_round_q15(acc);
            const std::size_t psum_off =
                (r_global * plan.cols + c_global) * 4;
            tile[idx] =
                first ? contribution
                      : nvm.read_i32(psum_slot_addr(ls - 1, psum_off)) +
                            contribution;
            if (!backend_.lea_op(bk_actual)) {
              failed = true;
              active_stats_->reexecuted_jobs += idx + 1;
              break;
            }
          }
          if (failed ||
              !backend_.cpu_work(jobs * config_.cpu_cycles_per_job)) {
            pending_recovery_ = true;
            continue;
          }

          // Single batched commit: all outputs + the loop-index indicator
          // (staged so an injected outage can tear it mid-transfer).
          const std::size_t bytes =
              jobs * (last ? 2 : config_.psum_bytes) + config_.counter_bytes;
          batch_.clear();
          for (std::size_t idx = 0; idx < jobs; ++idx) {
            const std::size_t r = idx / cols_in;
            const std::size_t c = idx % cols_in;
            const std::size_t r_global = rt * plan.br + r;
            const std::size_t c_global = ct * plan.bc + c;
            if (last) {
              batch_.push_i16(
                  out_buf + (r_global * plan.cols + c_global) * 2,
                  requantize(static_cast<std::int64_t>(tile[idx]) +
                                 gd.bias_q[r_global],
                             gd.multiplier, relu));
            } else {
              batch_.push_i32(
                  psum_slot_addr(ls, (r_global * plan.cols + c_global) * 4),
                  tile[idx]);
            }
          }
          stage_progress(batch_);
          if (!backend_.dma_commit(batch_, bytes)) {
            pending_recovery_ = true;
            active_stats_->reexecuted_jobs += jobs;
            continue;
          }
          note_commit();
          active_stats_->acc_outputs += jobs;
          active_stats_->preserved_outputs += jobs;
          active_stats_->macs += jobs * bk_actual;
          break;
        }
      }
      emit_scope(telemetry::EventClass::kTile, telemetry::EventPhase::kEnd,
                 ln.name, rt * plan.col_tiles() + ct);
    }
  }
  return true;
}

bool IntermittentEngine::run_gemm_immediate(const LoweredNode& ln) {
  const NodeDeployment& nd = model_.node(ln.node);
  const GemmDeployment& gd = *nd.gemm;
  const TilePlan& plan = ln.plan;
  const device::Address in_buf = model_.node(ln.inputs[0]).buffer;
  const device::Address out_buf = nd.buffer;
  device::Nvm& nvm = backend_.nvm();
  const bool relu = ln.relu_folded;

  for (std::size_t rt = 0; rt < plan.row_tiles(); ++rt) {
    const std::size_t rows_in = plan.rows_in_tile(rt);
    const std::uint32_t begin = gd.bsr.row_begin(rt);
    const std::uint32_t end = gd.bsr.row_end(rt);

    if (begin == end) {
      // All blocks of this row tile were pruned: bias-fill the outputs.
      for (std::size_t ct = 0; ct < plan.col_tiles(); ++ct) {
        const std::size_t cols_in = plan.cols_in_tile(ct);
        const std::size_t jobs = rows_in * cols_in;
        emit_scope(telemetry::EventClass::kTile, telemetry::EventPhase::kBegin,
                   ln.name, rt * plan.col_tiles() + ct);
        std::size_t done = 0;
        std::size_t retries = 0;
        while (done < jobs) {
          if (++retries > kMaxOpRetries) {
            retry_overflow(ln.name + " bias-fill");
          }
          if (pending_recovery_ && !recover_progress()) {
            continue;
          }
          if (!backend_.dma_read(rows_in * 4)) {  // bias tile
            pending_recovery_ = true;
            continue;
          }
          bool failed = false;
          for (std::size_t idx = done; idx < jobs; ++idx) {
            const std::size_t r_global = rt * plan.br + idx / cols_in;
            const std::size_t c_global = ct * plan.bc + idx % cols_in;
            const std::int16_t out_q = requantize(
                gd.bias_q[r_global], gd.multiplier, relu);
            batch_.clear();
            batch_.push_i16(out_buf + (r_global * plan.cols + c_global) * 2,
                            out_q);
            stage_progress(batch_);
            if (!backend_.pipelined_commit(batch_, 0,
                                          2 + config_.counter_bytes,
                                          config_.cpu_cycles_per_job)) {
              pending_recovery_ = true;
              failed = true;
              break;
            }
            ++done;
            ++active_stats_->acc_outputs;
            ++active_stats_->preserved_outputs;
            note_commit();
          }
          if (!failed) {
            break;
          }
        }
        emit_scope(telemetry::EventClass::kTile, telemetry::EventPhase::kEnd,
                   ln.name, rt * plan.col_tiles() + ct);
      }
      continue;
    }

    for (std::size_t ct = 0; ct < plan.col_tiles(); ++ct) {
      const std::size_t cols_in = plan.cols_in_tile(ct);
      emit_scope(telemetry::EventClass::kTile, telemetry::EventPhase::kBegin,
                 ln.name, rt * plan.col_tiles() + ct);
      for (std::uint32_t slot = begin; slot < end; ++slot) {
        const std::size_t kt = gd.bsr.col(slot);
        const bool first = slot == begin;
        const bool last = slot + 1 == end;
        const std::size_t ls = slot - begin;  // k-chain slot (psum parity)
        const std::size_t k0 = kt * plan.bk;
        const std::size_t bk_actual = plan.k_in_tile(kt);
        const std::int16_t* w_block = gd.bsr.block(slot);
        const std::size_t jobs = rows_in * cols_in;
        TileGather gather(ln, nvm, in_buf, k0, bk_actual);

        std::size_t done = 0;
        std::size_t retries = 0;
        while (done < jobs) {
          if (++retries > kMaxOpRetries) {
            retry_overflow(ln.name + " op");
          }
          // --- context fetch (charged; repeated after power failures) ---
          if (pending_recovery_ && !recover_progress()) {
            continue;
          }
          // Two extra NVM reads to locate the nonzero block (BSR row
          // pointer + column index; paper §III-D).
          if (!backend_.dma_read(2) || !backend_.dma_read(2) ||
              !backend_.dma_read(rows_in * bk_actual * 2) ||
              !charge_input_tile_reads(ln, bk_actual, cols_in)) {
            pending_recovery_ = true;
            continue;
          }
          if (!first && !backend_.dma_read(rows_in * cols_in * 4)) {
            pending_recovery_ = true;
            continue;
          }
          if (last && !backend_.dma_read(rows_in * 4)) {  // bias tile
            pending_recovery_ = true;
            continue;
          }

          // --- jobs: one accelerator output each ---
          bool failed = false;
          for (std::size_t idx = done; idx < jobs; ++idx) {
            const std::size_t r = idx / cols_in;
            const std::size_t c = idx % cols_in;
            const std::size_t r_global = rt * plan.br + r;
            const std::size_t c_global = ct * plan.bc + c;

            gather.set_column(c_global);
            std::int64_t acc = 0;
            for (std::size_t kk = 0; kk < bk_actual; ++kk) {
              acc += static_cast<std::int64_t>(gather.read(kk)) *
                     w_block[r * plan.bk + kk];
            }
            const std::int32_t contribution = shift_round_q15(acc);
            const std::size_t psum_off =
                (r_global * plan.cols + c_global) * 4;
            const std::int32_t psum_new =
                first ? contribution
                      : nvm.read_i32(psum_slot_addr(ls - 1, psum_off)) +
                            contribution;

            const std::size_t write_bytes =
                (last ? 2 : config_.psum_bytes) + config_.counter_bytes;
            batch_.clear();
            if (last) {
              batch_.push_i16(
                  out_buf + (r_global * plan.cols + c_global) * 2,
                  requantize(static_cast<std::int64_t>(psum_new) +
                                 gd.bias_q[r_global],
                             gd.multiplier, relu));
            } else {
              batch_.push_i32(psum_slot_addr(ls, psum_off), psum_new);
            }
            stage_progress(batch_);
            if (!backend_.pipelined_commit(batch_, bk_actual, write_bytes,
                                          config_.cpu_cycles_per_job)) {
              pending_recovery_ = true;
              ++active_stats_->reexecuted_jobs;
              failed = true;
              break;
            }
            ++done;
            ++active_stats_->acc_outputs;
            ++active_stats_->preserved_outputs;
            active_stats_->macs += bk_actual;
            note_commit();
          }
          if (!failed) {
            break;
          }
        }
      }
      emit_scope(telemetry::EventClass::kTile, telemetry::EventPhase::kEnd,
                 ln.name, rt * plan.col_tiles() + ct);
    }
  }
  return true;
}

bool IntermittentEngine::run_gemm_accumulate(const LoweredNode& ln) {
  const NodeDeployment& nd = model_.node(ln.node);
  const GemmDeployment& gd = *nd.gemm;
  const TilePlan& plan = ln.plan;
  const device::Address in_buf = model_.node(ln.inputs[0]).buffer;
  const device::Address out_buf = nd.buffer;
  device::Nvm& nvm = backend_.nvm();
  const bool relu = ln.relu_folded;

  auto psum_tile =
      util::ScratchPool::local().acquire<std::int32_t>(plan.br * plan.bc);
  for (std::size_t rt = 0; rt < plan.row_tiles(); ++rt) {
    const std::size_t rows_in = plan.rows_in_tile(rt);
    const std::uint32_t begin = gd.bsr.row_begin(rt);
    const std::uint32_t end = gd.bsr.row_end(rt);

    for (std::size_t ct = 0; ct < plan.col_tiles(); ++ct) {
      const std::size_t cols_in = plan.cols_in_tile(ct);
      const std::size_t jobs = rows_in * cols_in;
      psum_tile.fill(0);
      emit_scope(telemetry::EventClass::kTile, telemetry::EventPhase::kBegin,
                 ln.name, rt * plan.col_tiles() + ct);

      for (std::uint32_t slot = begin; slot < end; ++slot) {
        const std::size_t kt = gd.bsr.col(slot);
        const std::size_t k0 = kt * plan.bk;
        const std::size_t bk_actual = plan.k_in_tile(kt);
        const std::int16_t* w_block = gd.bsr.block(slot);
        TileGather gather(ln, nvm, in_buf, k0, bk_actual);

        if (!backend_.dma_read(2) || !backend_.dma_read(2) ||
            !backend_.dma_read(rows_in * bk_actual * 2) ||
            !charge_input_tile_reads(ln, bk_actual, cols_in)) {
          return false;
        }
        if (!backend_.lea_op(jobs * bk_actual)) {
          return false;
        }
        for (std::size_t r = 0; r < rows_in; ++r) {
          for (std::size_t c = 0; c < cols_in; ++c) {
            gather.set_column(ct * plan.bc + c);
            std::int64_t acc = 0;
            for (std::size_t kk = 0; kk < bk_actual; ++kk) {
              acc += static_cast<std::int64_t>(gather.read(kk)) *
                     w_block[r * plan.bk + kk];
            }
            psum_tile[r * cols_in + c] += shift_round_q15(acc);
          }
        }
        active_stats_->macs += jobs * bk_actual;
      }

      // Finalize the OFM tile: bias + requantize + single DMA write-back.
      if (!backend_.dma_read(rows_in * 4) ||
          !backend_.cpu_work(jobs * config_.cpu_cycles_per_job)) {
        return false;
      }
      if (!backend_.dma_write(jobs * 2)) {
        return false;
      }
      for (std::size_t r = 0; r < rows_in; ++r) {
        for (std::size_t c = 0; c < cols_in; ++c) {
          const std::size_t r_global = rt * plan.br + r;
          const std::size_t c_global = ct * plan.bc + c;
          const std::int16_t out_q = requantize(
              static_cast<std::int64_t>(psum_tile[r * cols_in + c]) +
                  gd.bias_q[r_global],
              gd.multiplier, relu);
          nvm.write_i16(out_buf + (r_global * plan.cols + c_global) * 2,
                        out_q);
        }
      }
      active_stats_->acc_outputs += jobs;
      active_stats_->preserved_outputs += jobs;
      emit_scope(telemetry::EventClass::kTile, telemetry::EventPhase::kEnd,
                 ln.name, rt * plan.col_tiles() + ct);
    }
  }
  return true;
}

bool IntermittentEngine::run_pool(const LoweredNode& ln) {
  const NodeDeployment& nd = model_.node(ln.node);
  const LoweredNode& in_node = model_.lowered().at(ln.inputs[0]);
  const device::Address in_buf = model_.node(ln.inputs[0]).buffer;
  const device::Address out_buf = nd.buffer;
  device::Nvm& nvm = backend_.nvm();

  const std::size_t channels = ln.out_shape[0];
  const std::size_t out_h = ln.out_shape[1];
  const std::size_t out_w = ln.out_shape[2];
  const std::size_t in_h = in_node.out_shape[1];
  const std::size_t in_w = in_node.out_shape[2];
  const nn::PoolSpec& p = ln.pool;
  const bool is_max = ln.kind == LoweredKind::kMaxPool;
  const auto area =
      static_cast<std::int32_t>(p.window_h * p.window_w);
  const std::size_t cycles_per_job = p.window_h * p.window_w * 2;
  const bool immediate = config_.mode == PreservationMode::kImmediate;
  const bool task_atomic = config_.mode == PreservationMode::kTaskAtomic;

  auto compute = [&](std::size_t c, std::size_t oy,
                     std::size_t ox) -> std::int16_t {
    std::int32_t best = -32768;
    std::int32_t sum = 0;
    for (std::size_t wy = 0; wy < p.window_h; ++wy) {
      for (std::size_t wx = 0; wx < p.window_w; ++wx) {
        const std::size_t iy = oy * p.stride + wy;
        const std::size_t ix = ox * p.stride + wx;
        const std::int16_t v =
            nvm.read_i16(in_buf + ((c * in_h + iy) * in_w + ix) * 2);
        best = std::max<std::int32_t>(best, v);
        sum += v;
      }
    }
    if (is_max) {
      return static_cast<std::int16_t>(best);
    }
    const std::int32_t avg =
        (sum >= 0 ? sum + area / 2 : sum - area / 2) / area;
    return clamp_i16(avg);
  };

  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t oy = 0; oy < out_h; ++oy) {
      std::size_t done = 0;
      std::size_t retries = 0;
      while (done < out_w) {
        if (++retries > kMaxOpRetries) {
          retry_overflow(ln.name + " pool row");
        }
        if ((immediate || task_atomic) && pending_recovery_ &&
            !recover_progress()) {
          continue;
        }
        // Fetch the input window rows for this output row.
        bool fetch_failed = false;
        for (std::size_t wy = 0; wy < p.window_h; ++wy) {
          if (!backend_.dma_read(in_w * 2)) {
            fetch_failed = true;
            break;
          }
        }
        if (fetch_failed) {
          if (!immediate && !task_atomic) {
            return false;  // kAccumulateInVm restarts the inference
          }
          pending_recovery_ = true;
          continue;
        }

        if (immediate) {
          bool failed = false;
          for (std::size_t ox = done; ox < out_w; ++ox) {
            const std::int16_t out_q = compute(c, oy, ox);
            batch_.clear();
            batch_.push_i16(out_buf + ((c * out_h + oy) * out_w + ox) * 2,
                            out_q);
            stage_progress(batch_);
            if (!backend_.pipelined_commit(batch_, 0,
                                          2 + config_.counter_bytes,
                                          cycles_per_job)) {
              pending_recovery_ = true;
              ++active_stats_->reexecuted_jobs;
              failed = true;
              break;
            }
            ++done;
            ++active_stats_->preserved_outputs;
            note_commit();
          }
          if (!failed) {
            break;
          }
        } else if (task_atomic) {
          // One output row is the atomic task: compute in VM, commit the
          // row and the indicator in a single batched write.
          if (!backend_.cpu_work(out_w * cycles_per_job)) {
            pending_recovery_ = true;
            active_stats_->reexecuted_jobs += out_w;
            continue;
          }
          batch_.clear();
          for (std::size_t ox = 0; ox < out_w; ++ox) {
            batch_.push_i16(out_buf + ((c * out_h + oy) * out_w + ox) * 2,
                            compute(c, oy, ox));
          }
          stage_progress(batch_);
          if (!backend_.dma_commit(batch_,
                                  out_w * 2 + config_.counter_bytes)) {
            pending_recovery_ = true;
            active_stats_->reexecuted_jobs += out_w;
            continue;
          }
          done = out_w;
          active_stats_->preserved_outputs += out_w;
          note_commit();
        } else {
          if (!backend_.cpu_work(out_w * cycles_per_job) ||
              !backend_.dma_write(out_w * 2)) {
            return false;
          }
          for (std::size_t ox = 0; ox < out_w; ++ox) {
            nvm.write_i16(out_buf + ((c * out_h + oy) * out_w + ox) * 2,
                          compute(c, oy, ox));
          }
          done = out_w;
          active_stats_->preserved_outputs += out_w;
        }
      }
    }
  }
  return true;
}

bool IntermittentEngine::run_copy(const LoweredNode& ln) {
  const NodeDeployment& nd = model_.node(ln.node);
  const device::Address out_buf = nd.buffer;
  device::Nvm& nvm = backend_.nvm();
  const bool immediate =
      config_.mode != PreservationMode::kAccumulateInVm;
  const bool relu = ln.kind == LoweredKind::kCopyRelu;
  const std::size_t chunk_elems = config_.copy_chunk_bytes / 2;

  std::size_t out_offset = 0;
  for (const nn::NodeId input : ln.inputs) {
    const NodeDeployment& in_nd = model_.node(input);
    const std::size_t elems = model_.lowered().at(input).out_elems;
    const double ratio = static_cast<double>(in_nd.scale) /
                         static_cast<double>(nd.scale);

    for (std::size_t begin = 0; begin < elems; begin += chunk_elems) {
      const std::size_t count = std::min(chunk_elems, elems - begin);
      std::size_t retries = 0;
      bool committed = false;
      while (!committed) {
        if (++retries > kMaxOpRetries) {
          retry_overflow(ln.name + " copy chunk");
        }
        if (immediate && pending_recovery_ && !recover_progress()) {
          continue;
        }
        if (!backend_.dma_read(count * 2)) {
          if (!immediate) {
            return false;
          }
          pending_recovery_ = true;
          continue;
        }
        const std::size_t write_bytes =
            count * 2 + (immediate ? config_.counter_bytes : 0);
        batch_.clear();
        for (std::size_t i = 0; i < count; ++i) {
          const std::int16_t v = nvm.read_i16(in_nd.buffer + (begin + i) * 2);
          std::int16_t out_q;
          if (relu) {
            out_q = v > 0 ? v : 0;  // same scale, exact
          } else {
            out_q = clamp_i16(
                std::lround(static_cast<double>(v) * ratio));
          }
          batch_.push_i16(out_buf + (out_offset + begin + i) * 2, out_q);
        }
        if (immediate) {
          stage_progress(batch_);
        }
        if (!backend_.pipelined_commit(batch_, 0, write_bytes, count * 3)) {
          if (!immediate) {
            return false;
          }
          pending_recovery_ = true;
          continue;
        }
        ++active_stats_->preserved_outputs;
        if (immediate) {
          note_commit();
        }
        committed = true;
      }
    }
    out_offset += elems;
  }
  return true;
}

InferenceResult IntermittentEngine::run(const nn::Tensor& sample) {
  const LoweredGraph& lowered = model_.lowered();
  const LoweredNode& input_node = lowered.at(0);
  if (sample.numel() != input_node.out_elems) {
    throw std::invalid_argument("IntermittentEngine::run: sample size " +
                                std::to_string(sample.numel()) +
                                " != model input " +
                                std::to_string(input_node.out_elems));
  }

  InferenceResult result;
  active_stats_ = &result.stats;
  const device::DeviceStats before = backend_.stats();
  device::Nvm& nvm = backend_.nvm();
  const float in_scale = model_.input_scale();

  emit_scope(telemetry::EventClass::kInference, telemetry::EventPhase::kBegin,
             "inference", 0);

  // Boot scrub: verify every sealed static region against the checksum
  // table before touching the model (throws IntegrityError on mismatch).
  if (config_.integrity.scrub_on_boot && model_.sealed_regions() > 0) {
    std::size_t scrub_retries = 0;
    while (!scrub_regions()) {
      if (++scrub_retries > kMaxOpRetries) {
        retry_overflow("boot scrub");
      }
    }
  }

  bool finished = false;
  std::size_t attempts = 0;
  while (!finished) {
    if (probe_ != nullptr) {
      probe_->on_attempt(attempts);
    }
    ++attempts;
    job_counter_ = 0;
    pending_recovery_ = false;

    // Load + quantize the input sample into its NVM buffer, and reset the
    // progress region. Idempotent, so a mid-write failure just retries
    // (a torn prefix is simply overwritten by the retry).
    const device::Address in_buf = model_.node(0).buffer;
    std::size_t retries = 0;
    bool loaded = false;
    while (!loaded) {
      if (++retries > kMaxOpRetries) {
        retry_overflow("input load");
      }
      batch_.clear();
      for (std::size_t i = 0; i < sample.numel(); ++i) {
        batch_.push_i16(in_buf + i * 2,
                        clamp_i16(std::lround(sample[i] / in_scale)));
      }
      if (!backend_.dma_commit(batch_, sample.numel() * 2)) {
        continue;
      }
      batch_.clear();
      std::size_t init_charge = 8;  // matches the classic progress reset
      if (model_.protected_progress()) {
        const auto record = encode_progress_record(0);
        batch_.push_bytes(model_.progress_addr(), record);
        batch_.push_bytes(
            model_.progress_addr() + kProgressSlotStride, record);
        init_charge = 2 * kProgressRecordBytes;
      } else {
        batch_.push_u32(model_.progress_addr(), 0);
      }
      if (!backend_.dma_commit(batch_, init_charge)) {
        continue;
      }
      loaded = true;
    }

    bool interrupted = false;
    result.per_node.clear();
    for (nn::NodeId id = 1; id < lowered.nodes.size() && !interrupted; ++id) {
      const LoweredNode& ln = lowered.nodes[id];
      const double node_start_us = backend_.now_us();
      if (ln.kind != LoweredKind::kAlias) {
        emit_scope(telemetry::EventClass::kLayer,
                   telemetry::EventPhase::kBegin, ln.name, id);
      }
      bool ok = true;
      switch (ln.kind) {
        case LoweredKind::kGemmConv:
        case LoweredKind::kGemmDense:
          ok = run_gemm(ln);
          break;
        case LoweredKind::kMaxPool:
        case LoweredKind::kAvgPool:
          ok = run_pool(ln);
          break;
        case LoweredKind::kCopyConcat:
        case LoweredKind::kCopyRelu:
          ok = run_copy(ln);
          break;
        case LoweredKind::kAlias:
          break;
      }
      if (ln.kind != LoweredKind::kAlias) {
        emit_scope(telemetry::EventClass::kLayer, telemetry::EventPhase::kEnd,
                   ln.name, id);
        result.per_node.push_back(
            {id, ln.name, (backend_.now_us() - node_start_us) * 1e-6});
      }
      if (!ok) {
        // Only kAccumulateInVm reports failure: restart from scratch.
        interrupted = true;
      }
    }
    if (interrupted) {
      if (result.stats.restarts >= max_restarts) {
        // Give up: the restart budget is spent. restarts stays exactly at
        // max_restarts — the aborted attempt is not another restart.
        result.stats.completed = false;
        break;
      }
      ++result.stats.restarts;
    } else {
      finished = true;
    }
  }
  emit_scope(telemetry::EventClass::kInference, telemetry::EventPhase::kEnd,
             "inference", attempts);

  // Read back the (dequantized) output activations.
  if (result.stats.completed) {
    const LoweredNode& out_node = lowered.at(lowered.output);
    const NodeDeployment& out_nd = model_.node(lowered.output);
    result.logits.resize(out_node.out_elems);
    for (std::size_t i = 0; i < out_node.out_elems; ++i) {
      result.logits[i] = static_cast<float>(
                             nvm.read_i16(out_nd.buffer + i * 2)) *
                         out_nd.scale;
    }
  }

  const device::DeviceStats after = backend_.stats();
  InferenceStats& s = result.stats;
  s.on_s = (after.on_time_us - before.on_time_us) * 1e-6;
  s.off_s = (after.off_time_us - before.off_time_us) * 1e-6;
  s.latency_s = s.on_s + s.off_s;
  s.nvm_read_s =
      (after.tag_us(device::CostTag::kNvmRead) -
       before.tag_us(device::CostTag::kNvmRead)) * 1e-6;
  s.nvm_write_s =
      (after.tag_us(device::CostTag::kNvmWrite) -
       before.tag_us(device::CostTag::kNvmWrite)) * 1e-6;
  s.lea_s = (after.tag_us(device::CostTag::kLea) -
             before.tag_us(device::CostTag::kLea)) * 1e-6;
  s.cpu_s = (after.tag_us(device::CostTag::kCpu) -
             before.tag_us(device::CostTag::kCpu)) * 1e-6;
  s.reboot_s = (after.tag_us(device::CostTag::kReboot) -
                before.tag_us(device::CostTag::kReboot)) * 1e-6;
  s.energy_j = after.energy_j - before.energy_j;
  s.power_failures = after.power_failures - before.power_failures;
  s.nvm_bytes_read = after.nvm_bytes_read - before.nvm_bytes_read;
  s.nvm_bytes_written = after.nvm_bytes_written - before.nvm_bytes_written;
  active_stats_ = nullptr;
  return result;
}

}  // namespace iprune::engine
