#include "engine/batched.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

namespace iprune::engine {

namespace {

/// Identical to IntermittentEngine's guard — the cohort shares one
/// timeline, so the same wording keeps error artifacts bit-comparable
/// with stepping-mode runs.
constexpr std::size_t kMaxOpRetries = 100000;

[[noreturn]] void retry_overflow(const std::string& where) {
  throw std::runtime_error(
      "IntermittentEngine: " + where +
      " exceeded the retry budget — a single operation cannot complete "
      "within one power cycle (enlarge the capacitor or shrink tiles)");
}

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

/// Bit-exact inline std::lround (round half away from zero) for the
/// magnitudes the engine produces (|x| far below 2^53, never NaN/inf).
/// lround is a libm call that GCC cannot expand at -O2 (no SSE rounding
/// mode matches half-away-from-zero), and the cohort's per-member value
/// work calls it once per output element — the single largest slice of
/// unsharable cost. trunc() is exact, so x - t is exact for |x| < 2^53
/// and the half-way comparison reproduces lround's result bit-for-bit,
/// including x = 0.49999999999999994 (where the classic x + 0.5 trick
/// rounds up and lround does not).
inline long fast_lround(double x) {
  const long t = static_cast<long>(x);  // truncation toward zero
  const double frac = x - static_cast<double>(t);
  if (frac >= 0.5) {
    return t + 1;
  }
  if (frac <= -0.5) {
    return t - 1;
  }
  return t;
}

std::int16_t requantize(std::int64_t psum, float multiplier, bool relu) {
  const long v = fast_lround(static_cast<double>(psum) *
                             static_cast<double>(multiplier));
  std::int16_t q = clamp_i16(v);
  if (relu && q < 0) {
    q = 0;
  }
  return q;
}

// Raw backing-store value access. Legal inside the lockstep envelope
// only: the ctor rejects corruption models, and value traffic is never
// charge-accounted (stepping mode reads values through Nvm helpers that
// are equally stat-less), so a plain memcpy is bit-identical.

inline std::int16_t raw_i16(const std::uint8_t* raw, std::size_t addr) {
  std::int16_t v;
  std::memcpy(&v, raw + addr, 2);
  return v;
}

inline std::int32_t raw_i32(const std::uint8_t* raw, std::size_t addr) {
  std::int32_t v;
  std::memcpy(&v, raw + addr, 4);
  return v;
}

inline void raw_write_i16(std::uint8_t* raw, std::size_t addr,
                          std::int16_t v) {
  std::memcpy(raw + addr, &v, 2);
}

/// Applies one member's copy of the leader's committed payload directly
/// to the member's NVM backing store, truncated at the leader's
/// surviving byte prefix. Fields must be emitted in exactly the order
/// the leader pushed them into its WriteBatch — the tear offset is a
/// byte count into that concatenated payload and may split a field.
class PrefixWriter {
 public:
  PrefixWriter(std::uint8_t* raw, std::size_t kept)
      : raw_(raw), kept_(kept) {}
  [[nodiscard]] bool done() const { return kept_ == 0; }
  void i16(std::size_t addr, std::int16_t v) { put(addr, &v, 2); }
  void i32(std::size_t addr, std::int32_t v) { put(addr, &v, 4); }
  void u32(std::size_t addr, std::uint32_t v) { put(addr, &v, 4); }

 private:
  void put(std::size_t addr, const void* src, std::size_t len) {
    const std::size_t bytes = std::min(len, kept_);
    std::memcpy(raw_ + addr, src, bytes);
    kept_ -= bytes;
  }
  std::uint8_t* raw_;
  std::size_t kept_;
};

/// Shared im2col address generator: the per-(k, column) index arithmetic
/// is member-invariant, so it is computed ONCE per tile and every member
/// reads its own NVM at the produced addresses. kPad marks zero padding
/// (no NVM traffic — matching TileGather in engine.cpp exactly).
constexpr std::size_t kPad = static_cast<std::size_t>(-1);

class BatchedGather {
 public:
  BatchedGather(const LoweredNode& ln, device::Address in_buf,
                std::size_t k0, std::size_t bk)
      : in_buf_(in_buf), k0_(k0) {
    if (ln.kind == LoweredKind::kGemmDense) {
      return;
    }
    geom_ = &ln.conv;
    const ConvGeometry& g = *geom_;
    const std::size_t kernel = g.kernel_h * g.kernel_w;
    rows_.resize(bk);
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

  /// Addresses of lowered rows [k0, k0+bk) at output column `s`.
  void fill_addrs(std::size_t s, std::size_t bk, std::size_t* addrs) const {
    if (geom_ == nullptr) {
      for (std::size_t kk = 0; kk < bk; ++kk) {
        addrs[kk] = in_buf_ + (k0_ + kk) * 2;
      }
      return;
    }
    const ConvGeometry& g = *geom_;
    const auto sy =
        static_cast<std::ptrdiff_t>((s / g.out_w) * g.stride);
    const auto sx =
        static_cast<std::ptrdiff_t>((s % g.out_w) * g.stride);
    for (std::size_t kk = 0; kk < bk; ++kk) {
      const KRow& row = rows_[kk];
      const std::ptrdiff_t iy = sy + row.off_y;
      const std::ptrdiff_t ix = sx + row.off_x;
      if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h) || ix < 0 ||
          ix >= static_cast<std::ptrdiff_t>(g.in_w)) {
        addrs[kk] = kPad;
        continue;
      }
      const std::size_t index = row.plane +
                                static_cast<std::size_t>(iy) * g.in_w +
                                static_cast<std::size_t>(ix);
      addrs[kk] = in_buf_ + index * 2;
    }
  }

 private:
  struct KRow {
    std::size_t plane;
    std::ptrdiff_t off_y;
    std::ptrdiff_t off_x;
  };

  device::Address in_buf_;
  std::size_t k0_ = 0;
  const ConvGeometry* geom_ = nullptr;
  std::vector<KRow> rows_;
};

/// k-tile dot product over precomputed gather addresses (conv path;
/// kPad rows are zero padding and contribute nothing).
inline std::int64_t dot_gather(const std::uint8_t* raw,
                               const std::size_t* addrs, std::size_t bk,
                               const std::int16_t* w) {
  std::int64_t acc = 0;
  for (std::size_t kk = 0; kk < bk; ++kk) {
    if (addrs[kk] != kPad) {
      acc += static_cast<std::int64_t>(raw_i16(raw, addrs[kk])) * w[kk];
    }
  }
  return acc;
}

/// Dense rows are contiguous: a straight pointer walk, no address list.
inline std::int64_t dot_dense(const std::uint8_t* raw, std::size_t base,
                              std::size_t bk, const std::int16_t* w) {
  std::int64_t acc = 0;
  for (std::size_t kk = 0; kk < bk; ++kk) {
    acc += static_cast<std::int64_t>(raw_i16(raw, base + kk * 2)) * w[kk];
  }
  return acc;
}

bool same_conv(const ConvGeometry& a, const ConvGeometry& b) {
  return a.in_c == b.in_c && a.in_h == b.in_h && a.in_w == b.in_w &&
         a.kernel_h == b.kernel_h && a.kernel_w == b.kernel_w &&
         a.stride == b.stride && a.pad_h == b.pad_h && a.pad_w == b.pad_w &&
         a.out_h == b.out_h && a.out_w == b.out_w;
}

bool same_plan(const TilePlan& a, const TilePlan& b) {
  return a.rows == b.rows && a.cols == b.cols && a.k == b.k &&
         a.br == b.br && a.bk == b.bk && a.bc == b.bc;
}

}  // namespace

bool BatchedEngine::lockstep_compatible(const DeployedModel& a,
                                        const DeployedModel& b) {
  const EngineConfig& ca = a.config();
  const EngineConfig& cb = b.config();
  if (ca.mode != cb.mode || ca.cpu_cycles_per_job != cb.cpu_cycles_per_job ||
      ca.psum_bytes != cb.psum_bytes ||
      ca.counter_bytes != cb.counter_bytes ||
      ca.copy_chunk_bytes != cb.copy_chunk_bytes ||
      ca.integrity.protect_progress != cb.integrity.protect_progress ||
      ca.integrity.seal_regions != cb.integrity.seal_regions ||
      ca.integrity.scrub_on_boot != cb.integrity.scrub_on_boot) {
    return false;
  }
  if (a.psum_addr() != b.psum_addr() || a.psum_stride() != b.psum_stride() ||
      a.psum_slots() != b.psum_slots() ||
      a.progress_addr() != b.progress_addr()) {
    return false;
  }
  const LoweredGraph& la = a.lowered();
  const LoweredGraph& lb = b.lowered();
  if (la.nodes.size() != lb.nodes.size() || la.output != lb.output) {
    return false;
  }
  for (std::size_t id = 0; id < la.nodes.size(); ++id) {
    const LoweredNode& na = la.nodes[id];
    const LoweredNode& nb = lb.nodes[id];
    if (na.kind != nb.kind || na.inputs != nb.inputs ||
        na.out_shape != nb.out_shape || na.out_elems != nb.out_elems ||
        na.relu_folded != nb.relu_folded || !same_plan(na.plan, nb.plan) ||
        !same_conv(na.conv, nb.conv) ||
        na.pool.window_h != nb.pool.window_h ||
        na.pool.window_w != nb.pool.window_w ||
        na.pool.stride != nb.pool.stride) {
      return false;
    }
    if (a.node(id).buffer != b.node(id).buffer) {
      return false;
    }
    const GemmDeployment* ga = a.node(id).gemm.get();
    const GemmDeployment* gb = b.node(id).gemm.get();
    if ((ga == nullptr) != (gb == nullptr)) {
      return false;
    }
    if (ga != nullptr &&
        (ga->bsr.row_ptr() != gb->bsr.row_ptr() ||
         ga->bsr.col_idx() != gb->bsr.col_idx() ||
         ga->bsr.block_elems() != gb->bsr.block_elems())) {
      return false;
    }
  }
  return true;
}

BatchedEngine::BatchedEngine(std::vector<BatchedMember> members)
    : members_(std::move(members)),
      leader_([&]() -> device::Msp430Device& {
        if (members_.empty() || members_[0].device == nullptr ||
            members_[0].model == nullptr) {
          throw std::invalid_argument(
              "BatchedEngine: cohort needs a non-null leader");
        }
        return *members_[0].device;
      }()),
      config_(members_[0].model->config()),
      progress_addr_(members_[0].model->progress_addr()) {
  const DeployedModel& lead = *members_[0].model;
  if (lead.protected_progress() || lead.sealed_regions() > 0 ||
      lead.psum_slots() != 1 || config_.integrity.scrub_on_boot) {
    throw std::invalid_argument(
        "BatchedEngine: integrity layer is outside the lockstep envelope");
  }
  for (const BatchedMember& m : members_) {
    if (m.model == nullptr || m.device == nullptr) {
      throw std::invalid_argument("BatchedEngine: null cohort member");
    }
    if (m.device->trace_enabled()) {
      throw std::invalid_argument(
          "BatchedEngine: telemetry tracing is outside the lockstep "
          "envelope");
    }
    if (m.device->nvm().corruption() != nullptr) {
      throw std::invalid_argument(
          "BatchedEngine: NVM corruption is outside the lockstep envelope");
    }
    if (!lockstep_compatible(lead, *m.model)) {
      throw std::invalid_argument(
          "BatchedEngine: member deployment is not lockstep-compatible "
          "with the leader");
    }
  }
  raws_.reserve(members_.size());
  for (const BatchedMember& m : members_) {
    raws_.push_back(m.device->nvm().raw_storage());
  }
  wblocks_.resize(members_.size());
  gds_.resize(members_.size());
}

void BatchedEngine::hoist_gemms(const LoweredNode& ln) {
  for (std::size_t m = 0; m < members_.size(); ++m) {
    gds_[m] = members_[m].model->node(ln.node).gemm.get();
  }
}

void BatchedEngine::stage_progress(device::WriteBatch& batch) const {
  batch.push_u32(progress_addr_, job_counter_ + 1);
}

void BatchedEngine::note_commit() { ++job_counter_; }

bool BatchedEngine::recover_progress() {
  if (!leader_.dma_read(8)) {  // progress indicator re-read
    return false;
  }
  const std::uint32_t persisted = leader_.nvm().read_u32(progress_addr_);
  if (persisted != job_counter_) {
    throw std::runtime_error(
        "IntermittentEngine: progress counter mismatch after recovery — "
        "NVM holds " + std::to_string(persisted) +
        " but the engine committed " + std::to_string(job_counter_) +
        " jobs (crash-consistency violation: a commit was torn, skipped "
        "or reordered)");
  }
  pending_recovery_ = false;
  return true;
}

bool BatchedEngine::charge_input_tile_reads(const LoweredNode& ln,
                                            std::size_t bk_actual,
                                            std::size_t bc_actual) {
  if (ln.kind == LoweredKind::kGemmDense) {
    return leader_.dma_read(bk_actual * 2);
  }
  for (std::size_t row = 0; row < bk_actual; ++row) {
    if (!leader_.dma_read(bc_actual * 2)) {
      return false;
    }
  }
  return true;
}

bool BatchedEngine::run_gemm(const LoweredNode& ln) {
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

bool BatchedEngine::run_gemm_immediate(const LoweredNode& ln) {
  const std::size_t n = members_.size();
  const TilePlan& plan = ln.plan;
  const device::Address in_buf = members_[0].model->node(ln.inputs[0]).buffer;
  const device::Address out_buf = members_[0].model->node(ln.node).buffer;
  const device::Address psum_base = members_[0].model->psum_addr();
  hoist_gemms(ln);
  const GemmDeployment& lead_gd = *gds_[0];
  const bool relu = ln.relu_folded;
  const bool dense = ln.kind == LoweredKind::kGemmDense;

  for (std::size_t rt = 0; rt < plan.row_tiles(); ++rt) {
    const std::size_t rows_in = plan.rows_in_tile(rt);
    const std::uint32_t begin = lead_gd.bsr.row_begin(rt);
    const std::uint32_t end = lead_gd.bsr.row_end(rt);

    if (begin == end) {
      for (std::size_t ct = 0; ct < plan.col_tiles(); ++ct) {
        const std::size_t cols_in = plan.cols_in_tile(ct);
        const std::size_t jobs = rows_in * cols_in;
        std::size_t done = 0;
        std::size_t retries = 0;
        while (done < jobs) {
          if (++retries > kMaxOpRetries) {
            retry_overflow(ln.name + " bias-fill");
          }
          if (pending_recovery_ && !recover_progress()) {
            continue;
          }
          if (!leader_.dma_read(rows_in * 4)) {
            pending_recovery_ = true;
            continue;
          }
          bool failed = false;
          for (std::size_t idx = done; idx < jobs; ++idx) {
            const std::size_t r_global = rt * plan.br + idx / cols_in;
            const std::size_t c_global = ct * plan.bc + idx % cols_in;
            const device::Address out =
                out_buf + (r_global * plan.cols + c_global) * 2;
            batch_.clear();
            batch_.push_i16(out, requantize(lead_gd.bias_q[r_global],
                                            lead_gd.multiplier, relu));
            stage_progress(batch_);
            const bool ok = leader_.pipelined_commit(
                batch_, 0, 2 + config_.counter_bytes,
                config_.cpu_cycles_per_job);
            if (const std::size_t kept = leader_.last_staged_kept();
                kept > 0) {
              for (std::size_t m = 1; m < n; ++m) {
                PrefixWriter pw(raws_[m], kept);
                pw.i16(out, requantize(gds_[m]->bias_q[r_global],
                                       gds_[m]->multiplier, relu));
                pw.u32(progress_addr_, job_counter_ + 1);
              }
            }
            if (!ok) {
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
      }
      continue;
    }

    for (std::size_t ct = 0; ct < plan.col_tiles(); ++ct) {
      const std::size_t cols_in = plan.cols_in_tile(ct);
      for (std::uint32_t slot = begin; slot < end; ++slot) {
        const std::size_t kt = lead_gd.bsr.col(slot);
        const bool first = slot == begin;
        const bool last = slot + 1 == end;
        const std::size_t k0 = kt * plan.bk;
        const std::size_t bk_actual = plan.k_in_tile(kt);
        const std::size_t jobs = rows_in * cols_in;
        const std::size_t write_bytes =
            (last ? 2 : config_.psum_bytes) + config_.counter_bytes;
        for (std::size_t m = 0; m < n; ++m) {
          wblocks_[m] = gds_[m]->bsr.block(slot);
        }
        const std::size_t dense_base = in_buf + k0 * 2;
        if (!dense) {
          // Gather addresses depend only on the output column: one list
          // per column serves every row, member and retry of this tile.
          const BatchedGather gather(ln, in_buf, k0, bk_actual);
          tile_addrs_.resize(cols_in * bk_actual);
          for (std::size_t c = 0; c < cols_in; ++c) {
            gather.fill_addrs(ct * plan.bc + c, bk_actual,
                              tile_addrs_.data() + c * bk_actual);
          }
        }

        std::size_t done = 0;
        std::size_t retries = 0;
        while (done < jobs) {
          if (++retries > kMaxOpRetries) {
            retry_overflow(ln.name + " op");
          }
          if (pending_recovery_ && !recover_progress()) {
            continue;
          }
          if (!leader_.dma_read(2) || !leader_.dma_read(2) ||
              !leader_.dma_read(rows_in * bk_actual * 2) ||
              !charge_input_tile_reads(ln, bk_actual, cols_in)) {
            pending_recovery_ = true;
            continue;
          }
          if (!first && !leader_.dma_read(rows_in * cols_in * 4)) {
            pending_recovery_ = true;
            continue;
          }
          if (last && !leader_.dma_read(rows_in * 4)) {
            pending_recovery_ = true;
            continue;
          }

          bool failed = false;
          for (std::size_t idx = done; idx < jobs; ++idx) {
            const std::size_t r = idx / cols_in;
            const std::size_t c = idx % cols_in;
            const std::size_t r_global = rt * plan.br + r;
            const std::size_t c_global = ct * plan.bc + c;
            const std::size_t* ja =
                dense ? nullptr : tile_addrs_.data() + c * bk_actual;
            const std::size_t psum_off =
                (r_global * plan.cols + c_global) * 4;
            const device::Address out =
                out_buf + (r_global * plan.cols + c_global) * 2;

            const auto value = [&](std::size_t m) -> std::int32_t {
              const std::uint8_t* raw = raws_[m];
              const std::int16_t* w = wblocks_[m] + r * plan.bk;
              const std::int64_t acc =
                  dense ? dot_dense(raw, dense_base, bk_actual, w)
                        : dot_gather(raw, ja, bk_actual, w);
              const std::int32_t contribution = shift_round_q15(acc);
              return first ? contribution
                           : raw_i32(raw, psum_base + psum_off) +
                                 contribution;
            };

            {
              const std::int32_t psum_new = value(0);
              batch_.clear();
              if (last) {
                batch_.push_i16(
                    out, requantize(static_cast<std::int64_t>(psum_new) +
                                        lead_gd.bias_q[r_global],
                                    lead_gd.multiplier, relu));
              } else {
                batch_.push_i32(psum_base + psum_off, psum_new);
              }
              stage_progress(batch_);
            }
            const bool ok = leader_.pipelined_commit(
                batch_, bk_actual, write_bytes, config_.cpu_cycles_per_job);
            if (const std::size_t kept = leader_.last_staged_kept();
                kept > 0) {
              for (std::size_t m = 1; m < n; ++m) {
                const std::int32_t psum_new = value(m);
                PrefixWriter pw(raws_[m], kept);
                if (last) {
                  pw.i16(out,
                         requantize(static_cast<std::int64_t>(psum_new) +
                                        gds_[m]->bias_q[r_global],
                                    gds_[m]->multiplier, relu));
                } else {
                  pw.i32(psum_base + psum_off, psum_new);
                }
                pw.u32(progress_addr_, job_counter_ + 1);
              }
            }
            if (!ok) {
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
    }
  }
  return true;
}

bool BatchedEngine::run_gemm_task(const LoweredNode& ln) {
  const std::size_t n = members_.size();
  const TilePlan& plan = ln.plan;
  const device::Address in_buf = members_[0].model->node(ln.inputs[0]).buffer;
  const device::Address out_buf = members_[0].model->node(ln.node).buffer;
  const device::Address psum_base = members_[0].model->psum_addr();
  hoist_gemms(ln);
  const GemmDeployment& lead_gd = *gds_[0];
  const bool relu = ln.relu_folded;
  const bool dense = ln.kind == LoweredKind::kGemmDense;

  tiles_.resize(plan.br * plan.bc);  // leader-only VM tile
  for (std::size_t rt = 0; rt < plan.row_tiles(); ++rt) {
    const std::size_t rows_in = plan.rows_in_tile(rt);
    const std::uint32_t begin = lead_gd.bsr.row_begin(rt);
    const std::uint32_t end = lead_gd.bsr.row_end(rt);

    if (begin == end) {
      for (std::size_t ct = 0; ct < plan.col_tiles(); ++ct) {
        const std::size_t cols_in = plan.cols_in_tile(ct);
        const std::size_t jobs = rows_in * cols_in;
        const auto out_addr = [&](std::size_t idx) {
          const std::size_t r_global = rt * plan.br + idx / cols_in;
          const std::size_t c_global = ct * plan.bc + idx % cols_in;
          return out_buf + (r_global * plan.cols + c_global) * 2;
        };
        std::size_t retries = 0;
        while (true) {
          if (++retries > kMaxOpRetries) {
            retry_overflow(ln.name + " bias-fill task");
          }
          if (pending_recovery_ && !recover_progress()) {
            continue;
          }
          if (!leader_.dma_read(rows_in * 4) ||
              !leader_.cpu_work(jobs * config_.cpu_cycles_per_job)) {
            pending_recovery_ = true;
            active_stats_->reexecuted_jobs += jobs;
            continue;
          }
          batch_.clear();
          for (std::size_t idx = 0; idx < jobs; ++idx) {
            const std::size_t r_global = rt * plan.br + idx / cols_in;
            batch_.push_i16(out_addr(idx),
                            requantize(lead_gd.bias_q[r_global],
                                       lead_gd.multiplier, relu));
          }
          stage_progress(batch_);
          const bool ok =
              leader_.dma_commit(batch_, jobs * 2 + config_.counter_bytes);
          if (const std::size_t kept = leader_.last_staged_kept();
              kept > 0) {
            for (std::size_t m = 1; m < n; ++m) {
              PrefixWriter pw(raws_[m], kept);
              for (std::size_t idx = 0; idx < jobs && !pw.done(); ++idx) {
                const std::size_t r_global = rt * plan.br + idx / cols_in;
                pw.i16(out_addr(idx),
                       requantize(gds_[m]->bias_q[r_global],
                                  gds_[m]->multiplier, relu));
              }
              pw.u32(progress_addr_, job_counter_ + 1);
            }
          }
          if (!ok) {
            pending_recovery_ = true;
            active_stats_->reexecuted_jobs += jobs;
            continue;
          }
          note_commit();
          active_stats_->acc_outputs += jobs;
          active_stats_->preserved_outputs += jobs;
          break;
        }
      }
      continue;
    }

    for (std::size_t ct = 0; ct < plan.col_tiles(); ++ct) {
      const std::size_t cols_in = plan.cols_in_tile(ct);
      const std::size_t jobs = rows_in * cols_in;
      for (std::uint32_t slot = begin; slot < end; ++slot) {
        const std::size_t kt = lead_gd.bsr.col(slot);
        const bool first = slot == begin;
        const bool last = slot + 1 == end;
        const std::size_t k0 = kt * plan.bk;
        const std::size_t bk_actual = plan.k_in_tile(kt);
        for (std::size_t m = 0; m < n; ++m) {
          wblocks_[m] = gds_[m]->bsr.block(slot);
        }
        const std::size_t dense_base = in_buf + k0 * 2;
        if (!dense) {
          const BatchedGather gather(ln, in_buf, k0, bk_actual);
          tile_addrs_.resize(cols_in * bk_actual);
          for (std::size_t c = 0; c < cols_in; ++c) {
            gather.fill_addrs(ct * plan.bc + c, bk_actual,
                              tile_addrs_.data() + c * bk_actual);
          }
        }

        // One member's tile value for job `idx` (psums read from the
        // member's NVM, untouched until this slot's commit applies).
        const auto value = [&](std::size_t m,
                               std::size_t idx) -> std::int32_t {
          const std::size_t r = idx / cols_in;
          const std::size_t c = idx % cols_in;
          const std::uint8_t* raw = raws_[m];
          const std::int16_t* w = wblocks_[m] + r * plan.bk;
          const std::int64_t acc =
              dense ? dot_dense(raw, dense_base, bk_actual, w)
                    : dot_gather(raw, tile_addrs_.data() + c * bk_actual,
                                 bk_actual, w);
          const std::int32_t contribution = shift_round_q15(acc);
          if (first) {
            return contribution;
          }
          const std::size_t r_global = rt * plan.br + r;
          const std::size_t c_global = ct * plan.bc + c;
          return raw_i32(raw,
                         psum_base + (r_global * plan.cols + c_global) * 4) +
                 contribution;
        };

        std::size_t retries = 0;
        while (true) {
          if (++retries > kMaxOpRetries) {
            retry_overflow(ln.name + " task");
          }
          if (pending_recovery_ && !recover_progress()) {
            continue;
          }
          if (!leader_.dma_read(2) || !leader_.dma_read(2) ||
              !leader_.dma_read(rows_in * bk_actual * 2) ||
              !charge_input_tile_reads(ln, bk_actual, cols_in) ||
              (!first && !leader_.dma_read(rows_in * cols_in * 4)) ||
              (last && !leader_.dma_read(rows_in * 4))) {
            pending_recovery_ = true;
            continue;
          }

          bool failed = false;
          for (std::size_t idx = 0; idx < jobs; ++idx) {
            tiles_[idx] = value(0, idx);
            if (!leader_.lea_op(bk_actual)) {
              failed = true;
              active_stats_->reexecuted_jobs += idx + 1;
              break;
            }
          }
          if (failed ||
              !leader_.cpu_work(jobs * config_.cpu_cycles_per_job)) {
            pending_recovery_ = true;
            continue;
          }

          const std::size_t bytes =
              jobs * (last ? 2 : config_.psum_bytes) + config_.counter_bytes;
          batch_.clear();
          for (std::size_t idx = 0; idx < jobs; ++idx) {
            const std::size_t r_global = rt * plan.br + idx / cols_in;
            const std::size_t c_global = ct * plan.bc + idx % cols_in;
            if (last) {
              batch_.push_i16(
                  out_buf + (r_global * plan.cols + c_global) * 2,
                  requantize(static_cast<std::int64_t>(tiles_[idx]) +
                                 lead_gd.bias_q[r_global],
                             lead_gd.multiplier, relu));
            } else {
              batch_.push_i32(
                  psum_base + (r_global * plan.cols + c_global) * 4,
                  tiles_[idx]);
            }
          }
          stage_progress(batch_);
          const bool ok = leader_.dma_commit(batch_, bytes);
          if (const std::size_t kept = leader_.last_staged_kept();
              kept > 0) {
            for (std::size_t m = 1; m < n; ++m) {
              PrefixWriter pw(raws_[m], kept);
              for (std::size_t idx = 0; idx < jobs && !pw.done(); ++idx) {
                const std::size_t r_global = rt * plan.br + idx / cols_in;
                const std::size_t c_global = ct * plan.bc + idx % cols_in;
                const std::int32_t v = value(m, idx);
                if (last) {
                  pw.i16(out_buf + (r_global * plan.cols + c_global) * 2,
                         requantize(static_cast<std::int64_t>(v) +
                                        gds_[m]->bias_q[r_global],
                                    gds_[m]->multiplier, relu));
                } else {
                  pw.i32(psum_base + (r_global * plan.cols + c_global) * 4,
                         v);
                }
              }
              pw.u32(progress_addr_, job_counter_ + 1);
            }
          }
          if (!ok) {
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
    }
  }
  return true;
}

bool BatchedEngine::run_gemm_accumulate(const LoweredNode& ln) {
  const std::size_t n = members_.size();
  const TilePlan& plan = ln.plan;
  const device::Address in_buf = members_[0].model->node(ln.inputs[0]).buffer;
  const device::Address out_buf = members_[0].model->node(ln.node).buffer;
  hoist_gemms(ln);
  const GemmDeployment& lead_gd = *gds_[0];
  const bool relu = ln.relu_folded;
  const bool dense = ln.kind == LoweredKind::kGemmDense;

  tiles_.resize(n * plan.br * plan.bc);
  const std::size_t tile_stride = plan.br * plan.bc;
  for (std::size_t rt = 0; rt < plan.row_tiles(); ++rt) {
    const std::size_t rows_in = plan.rows_in_tile(rt);
    const std::uint32_t begin = lead_gd.bsr.row_begin(rt);
    const std::uint32_t end = lead_gd.bsr.row_end(rt);

    for (std::size_t ct = 0; ct < plan.col_tiles(); ++ct) {
      const std::size_t cols_in = plan.cols_in_tile(ct);
      const std::size_t jobs = rows_in * cols_in;
      std::fill(tiles_.begin(), tiles_.end(), 0);

      for (std::uint32_t slot = begin; slot < end; ++slot) {
        const std::size_t kt = lead_gd.bsr.col(slot);
        const std::size_t k0 = kt * plan.bk;
        const std::size_t bk_actual = plan.k_in_tile(kt);
        for (std::size_t m = 0; m < n; ++m) {
          wblocks_[m] = gds_[m]->bsr.block(slot);
        }
        const std::size_t dense_base = in_buf + k0 * 2;
        if (!dense) {
          const BatchedGather gather(ln, in_buf, k0, bk_actual);
          tile_addrs_.resize(cols_in * bk_actual);
          for (std::size_t c = 0; c < cols_in; ++c) {
            gather.fill_addrs(ct * plan.bc + c, bk_actual,
                              tile_addrs_.data() + c * bk_actual);
          }
        }

        if (!leader_.dma_read(2) || !leader_.dma_read(2) ||
            !leader_.dma_read(rows_in * bk_actual * 2) ||
            !charge_input_tile_reads(ln, bk_actual, cols_in)) {
          return false;
        }
        if (!leader_.lea_op(jobs * bk_actual)) {
          return false;
        }
        for (std::size_t r = 0; r < rows_in; ++r) {
          for (std::size_t c = 0; c < cols_in; ++c) {
            const std::size_t* ja =
                dense ? nullptr : tile_addrs_.data() + c * bk_actual;
            for (std::size_t m = 0; m < n; ++m) {
              const std::uint8_t* raw = raws_[m];
              const std::int16_t* w = wblocks_[m] + r * plan.bk;
              const std::int64_t acc =
                  dense ? dot_dense(raw, dense_base, bk_actual, w)
                        : dot_gather(raw, ja, bk_actual, w);
              tiles_[m * tile_stride + r * cols_in + c] +=
                  shift_round_q15(acc);
            }
          }
        }
        active_stats_->macs += jobs * bk_actual;
      }

      if (!leader_.dma_read(rows_in * 4) ||
          !leader_.cpu_work(jobs * config_.cpu_cycles_per_job)) {
        return false;
      }
      if (!leader_.dma_write(jobs * 2)) {
        return false;
      }
      for (std::size_t m = 0; m < n; ++m) {
        const GemmDeployment& gd = *gds_[m];
        std::uint8_t* raw = raws_[m];
        for (std::size_t r = 0; r < rows_in; ++r) {
          for (std::size_t c = 0; c < cols_in; ++c) {
            const std::size_t r_global = rt * plan.br + r;
            const std::size_t c_global = ct * plan.bc + c;
            raw_write_i16(
                raw, out_buf + (r_global * plan.cols + c_global) * 2,
                requantize(static_cast<std::int64_t>(
                               tiles_[m * tile_stride + r * cols_in + c]) +
                               gd.bias_q[r_global],
                           gd.multiplier, relu));
          }
        }
      }
      active_stats_->acc_outputs += jobs;
      active_stats_->preserved_outputs += jobs;
    }
  }
  return true;
}

bool BatchedEngine::run_pool(const LoweredNode& ln) {
  const std::size_t n = members_.size();
  const LoweredNode& in_node = members_[0].model->lowered().at(ln.inputs[0]);
  const device::Address in_buf = members_[0].model->node(ln.inputs[0]).buffer;
  const device::Address out_buf = members_[0].model->node(ln.node).buffer;

  const std::size_t channels = ln.out_shape[0];
  const std::size_t out_h = ln.out_shape[1];
  const std::size_t out_w = ln.out_shape[2];
  const std::size_t in_h = in_node.out_shape[1];
  const std::size_t in_w = in_node.out_shape[2];
  const nn::PoolSpec& p = ln.pool;
  const bool is_max = ln.kind == LoweredKind::kMaxPool;
  const auto area = static_cast<std::int32_t>(p.window_h * p.window_w);
  const std::size_t cycles_per_job = p.window_h * p.window_w * 2;
  const bool immediate = config_.mode == PreservationMode::kImmediate;
  const bool task_atomic = config_.mode == PreservationMode::kTaskAtomic;

  const auto compute = [&](const std::uint8_t* raw, std::size_t c,
                           std::size_t oy, std::size_t ox) -> std::int16_t {
    std::int32_t best = -32768;
    std::int32_t sum = 0;
    for (std::size_t wy = 0; wy < p.window_h; ++wy) {
      for (std::size_t wx = 0; wx < p.window_w; ++wx) {
        const std::size_t iy = oy * p.stride + wy;
        const std::size_t ix = ox * p.stride + wx;
        const std::int16_t v =
            raw_i16(raw, in_buf + ((c * in_h + iy) * in_w + ix) * 2);
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
      const auto out_addr = [&](std::size_t ox) {
        return out_buf + ((c * out_h + oy) * out_w + ox) * 2;
      };
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
        bool fetch_failed = false;
        for (std::size_t wy = 0; wy < p.window_h; ++wy) {
          if (!leader_.dma_read(in_w * 2)) {
            fetch_failed = true;
            break;
          }
        }
        if (fetch_failed) {
          if (!immediate && !task_atomic) {
            return false;
          }
          pending_recovery_ = true;
          continue;
        }

        if (immediate) {
          bool failed = false;
          for (std::size_t ox = done; ox < out_w; ++ox) {
            batch_.clear();
            batch_.push_i16(out_addr(ox), compute(raws_[0], c, oy, ox));
            stage_progress(batch_);
            const bool ok = leader_.pipelined_commit(
                batch_, 0, 2 + config_.counter_bytes, cycles_per_job);
            if (const std::size_t kept = leader_.last_staged_kept();
                kept > 0) {
              for (std::size_t m = 1; m < n; ++m) {
                PrefixWriter pw(raws_[m], kept);
                pw.i16(out_addr(ox), compute(raws_[m], c, oy, ox));
                pw.u32(progress_addr_, job_counter_ + 1);
              }
            }
            if (!ok) {
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
          if (!leader_.cpu_work(out_w * cycles_per_job)) {
            pending_recovery_ = true;
            active_stats_->reexecuted_jobs += out_w;
            continue;
          }
          batch_.clear();
          for (std::size_t ox = 0; ox < out_w; ++ox) {
            batch_.push_i16(out_addr(ox), compute(raws_[0], c, oy, ox));
          }
          stage_progress(batch_);
          const bool ok =
              leader_.dma_commit(batch_, out_w * 2 + config_.counter_bytes);
          if (const std::size_t kept = leader_.last_staged_kept();
              kept > 0) {
            for (std::size_t m = 1; m < n; ++m) {
              PrefixWriter pw(raws_[m], kept);
              for (std::size_t ox = 0; ox < out_w && !pw.done(); ++ox) {
                pw.i16(out_addr(ox), compute(raws_[m], c, oy, ox));
              }
              pw.u32(progress_addr_, job_counter_ + 1);
            }
          }
          if (!ok) {
            pending_recovery_ = true;
            active_stats_->reexecuted_jobs += out_w;
            continue;
          }
          done = out_w;
          active_stats_->preserved_outputs += out_w;
          note_commit();
        } else {
          if (!leader_.cpu_work(out_w * cycles_per_job) ||
              !leader_.dma_write(out_w * 2)) {
            return false;
          }
          for (std::size_t m = 0; m < n; ++m) {
            std::uint8_t* raw = raws_[m];
            for (std::size_t ox = 0; ox < out_w; ++ox) {
              raw_write_i16(raw, out_addr(ox), compute(raw, c, oy, ox));
            }
          }
          done = out_w;
          active_stats_->preserved_outputs += out_w;
        }
      }
    }
  }
  return true;
}

bool BatchedEngine::run_copy(const LoweredNode& ln) {
  const std::size_t n = members_.size();
  const device::Address out_buf = members_[0].model->node(ln.node).buffer;
  const bool immediate = config_.mode != PreservationMode::kAccumulateInVm;
  const bool relu = ln.kind == LoweredKind::kCopyRelu;
  const std::size_t chunk_elems = config_.copy_chunk_bytes / 2;

  std::size_t out_offset = 0;
  for (const nn::NodeId input : ln.inputs) {
    const device::Address in_addr = members_[0].model->node(input).buffer;
    const std::size_t elems =
        members_[0].model->lowered().at(input).out_elems;

    // Per-member requantization ratio (scales differ across members).
    const auto ratio_of = [&](std::size_t m) {
      const NodeDeployment& in_nd = members_[m].model->node(input);
      const NodeDeployment& nd = members_[m].model->node(ln.node);
      return static_cast<double>(in_nd.scale) /
             static_cast<double>(nd.scale);
    };
    const auto copy_q = [&](const std::uint8_t* raw, double ratio,
                            std::size_t elem) -> std::int16_t {
      const std::int16_t v = raw_i16(raw, in_addr + elem * 2);
      if (relu) {
        return v > 0 ? v : 0;  // same scale, exact
      }
      return clamp_i16(fast_lround(static_cast<double>(v) * ratio));
    };

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
        if (!leader_.dma_read(count * 2)) {
          if (!immediate) {
            return false;
          }
          pending_recovery_ = true;
          continue;
        }
        const std::size_t write_bytes =
            count * 2 + (immediate ? config_.counter_bytes : 0);
        const double lead_ratio = ratio_of(0);
        batch_.clear();
        for (std::size_t i = 0; i < count; ++i) {
          batch_.push_i16(out_buf + (out_offset + begin + i) * 2,
                          copy_q(raws_[0], lead_ratio, begin + i));
        }
        if (immediate) {
          stage_progress(batch_);
        }
        const bool ok =
            leader_.pipelined_commit(batch_, 0, write_bytes, count * 3);
        if (const std::size_t kept = leader_.last_staged_kept(); kept > 0) {
          for (std::size_t m = 1; m < n; ++m) {
            const double ratio = ratio_of(m);
            PrefixWriter pw(raws_[m], kept);
            for (std::size_t i = 0; i < count && !pw.done(); ++i) {
              pw.i16(out_buf + (out_offset + begin + i) * 2,
                     copy_q(raws_[m], ratio, begin + i));
            }
            if (immediate) {
              pw.u32(progress_addr_, job_counter_ + 1);
            }
          }
        }
        if (!ok) {
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

std::vector<std::int16_t> BatchedEngine::quantize_input(
    std::span<const float> sample, float input_scale) {
  std::vector<std::int16_t> q(sample.size());
  for (std::size_t i = 0; i < q.size(); ++i) {
    q[i] = clamp_i16(fast_lround(sample[i] / input_scale));
  }
  return q;
}

std::vector<InferenceResult> BatchedEngine::run(
    std::span<const nn::Tensor> samples) {
  if (samples.size() != members_.size()) {
    throw std::invalid_argument(
        "BatchedEngine::run: need one sample per cohort member");
  }
  std::vector<std::vector<std::int16_t>> quantized;
  quantized.reserve(samples.size());
  std::vector<std::span<const std::int16_t>> inputs;
  inputs.reserve(samples.size());
  for (std::size_t m = 0; m < samples.size(); ++m) {
    quantized.push_back(
        quantize_input({samples[m].data(), samples[m].numel()},
                       members_[m].model->input_scale()));
    inputs.emplace_back(quantized.back());
  }
  return run_quantized(inputs);
}

std::vector<InferenceResult> BatchedEngine::run_quantized(
    std::span<const std::span<const std::int16_t>> inputs) {
  const std::size_t n = members_.size();
  if (inputs.size() != n) {
    throw std::invalid_argument(
        "BatchedEngine::run: need one sample per cohort member");
  }
  const LoweredGraph& lowered = members_[0].model->lowered();
  const LoweredNode& input_node = lowered.at(0);
  for (const std::span<const std::int16_t>& input : inputs) {
    if (input.size() != input_node.out_elems) {
      throw std::invalid_argument("IntermittentEngine::run: sample size " +
                                  std::to_string(input.size()) +
                                  " != model input " +
                                  std::to_string(input_node.out_elems));
    }
  }

  std::vector<InferenceResult> results(n);
  InferenceStats shared;
  active_stats_ = &shared;
  const device::DeviceStats before = leader_.stats();
  std::vector<NodeLatency> per_node;

  bool finished = false;
  std::size_t attempts = 0;
  while (!finished) {
    ++attempts;
    job_counter_ = 0;
    pending_recovery_ = false;

    const device::Address in_buf = members_[0].model->node(0).buffer;
    std::size_t retries = 0;
    bool loaded = false;
    while (!loaded) {
      if (++retries > kMaxOpRetries) {
        retry_overflow("input load");
      }
      // The payload is one contiguous ascending run of i16s, so a single
      // part stages the identical byte sequence (tear offsets land on
      // the same cells) and followers apply their prefix as one memcpy.
      const std::size_t payload = input_node.out_elems * 2;
      batch_.clear();
      batch_.push_bytes(
          in_buf,
          {reinterpret_cast<const std::uint8_t*>(inputs[0].data()),
           payload});
      bool ok = leader_.dma_commit(batch_, payload);
      if (const std::size_t kept = leader_.last_staged_kept(); kept > 0) {
        const std::size_t bytes = std::min(kept, payload);
        for (std::size_t m = 1; m < n; ++m) {
          std::memcpy(raws_[m] + in_buf,
                      reinterpret_cast<const std::uint8_t*>(
                          inputs[m].data()),
                      bytes);
        }
      }
      if (!ok) {
        continue;
      }
      batch_.clear();
      batch_.push_u32(progress_addr_, 0);
      ok = leader_.dma_commit(batch_, 8);  // matches classic progress reset
      if (const std::size_t kept = leader_.last_staged_kept(); kept > 0) {
        for (std::size_t m = 1; m < n; ++m) {
          PrefixWriter pw(raws_[m], kept);
          pw.u32(progress_addr_, 0);
        }
      }
      if (!ok) {
        continue;
      }
      loaded = true;
    }

    bool interrupted = false;
    per_node.clear();
    for (nn::NodeId id = 1; id < lowered.nodes.size() && !interrupted; ++id) {
      const LoweredNode& ln = lowered.nodes[id];
      const double node_start_us = leader_.now_us();
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
        per_node.push_back(
            {id, ln.name, (leader_.now_us() - node_start_us) * 1e-6});
      }
      if (!ok) {
        interrupted = true;
      }
    }
    if (interrupted) {
      if (shared.restarts >= max_restarts) {
        shared.completed = false;
        break;
      }
      ++shared.restarts;
    } else {
      finished = true;
    }
  }

  const device::DeviceStats after = leader_.stats();
  shared.on_s = (after.on_time_us - before.on_time_us) * 1e-6;
  shared.off_s = (after.off_time_us - before.off_time_us) * 1e-6;
  shared.latency_s = shared.on_s + shared.off_s;
  shared.nvm_read_s = (after.tag_us(device::CostTag::kNvmRead) -
                       before.tag_us(device::CostTag::kNvmRead)) * 1e-6;
  shared.nvm_write_s = (after.tag_us(device::CostTag::kNvmWrite) -
                        before.tag_us(device::CostTag::kNvmWrite)) * 1e-6;
  shared.lea_s = (after.tag_us(device::CostTag::kLea) -
                  before.tag_us(device::CostTag::kLea)) * 1e-6;
  shared.cpu_s = (after.tag_us(device::CostTag::kCpu) -
                  before.tag_us(device::CostTag::kCpu)) * 1e-6;
  shared.reboot_s = (after.tag_us(device::CostTag::kReboot) -
                     before.tag_us(device::CostTag::kReboot)) * 1e-6;
  shared.energy_j = after.energy_j - before.energy_j;
  shared.power_failures = after.power_failures - before.power_failures;
  shared.nvm_bytes_read = after.nvm_bytes_read - before.nvm_bytes_read;
  shared.nvm_bytes_written =
      after.nvm_bytes_written - before.nvm_bytes_written;
  active_stats_ = nullptr;

  for (std::size_t m = 0; m < n; ++m) {
    results[m].stats = shared;
    results[m].per_node = per_node;
    if (shared.completed) {
      const LoweredNode& out_node = lowered.at(lowered.output);
      const NodeDeployment& out_nd = members_[m].model->node(lowered.output);
      const std::uint8_t* raw = raws_[m];
      results[m].logits.resize(out_node.out_elems);
      for (std::size_t i = 0; i < out_node.out_elems; ++i) {
        results[m].logits[i] =
            static_cast<float>(raw_i16(raw, out_nd.buffer + i * 2)) *
            out_nd.scale;
      }
    }
  }
  return results;
}

}  // namespace iprune::engine
