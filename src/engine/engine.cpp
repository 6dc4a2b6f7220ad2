#include "engine/engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
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

/// Bit-exact inline std::lround (round half away from zero). lround is a
/// libm call that GCC cannot expand at -O2 (no SSE rounding mode matches
/// half-away-from-zero), and the engine calls it once per output element.
/// For |x| < 2^52 the truncation is exact, so x - t is exact and the
/// half-way comparison reproduces lround bit for bit, including
/// x = 0.49999999999999994 (where the classic x + 0.5 trick rounds up and
/// lround does not). Everything else — huge, infinite or NaN values a
/// caller's sample can carry — goes to std::lround itself, so the result
/// is always lround's and the cast to long never leaves its range.
long fast_lround(double x) {
  if (!(std::fabs(x) < 0x1p52)) [[unlikely]] {
    return std::lround(x);
  }
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

/// The leader's value traffic: typed Nvm reads and writes, issued in the
/// exact order the stateful corruption fault streams and the bounds
/// checks depend on.
struct TypedNvm {
  device::Nvm& nvm;
  std::int16_t i16(device::Address addr) const { return nvm.read_i16(addr); }
  std::int32_t i32(device::Address addr) const { return nvm.read_i32(addr); }
  void put_i16(device::Address addr, std::int16_t v) const {
    nvm.write_i16(addr, v);
  }
};

/// A follower's value traffic, straight at its NVM backing store. Legal
/// inside the lockstep envelope only: with no corruption model and no
/// charge accounting on value traffic it is bit-identical to TypedNvm,
/// and measurably cheaper on the one cost a cohort cannot share.
struct RawNvm {
  std::uint8_t* raw;
  std::int16_t i16(device::Address addr) const {
    std::int16_t v;
    std::memcpy(&v, raw + addr, 2);
    return v;
  }
  std::int32_t i32(device::Address addr) const {
    std::int32_t v;
    std::memcpy(&v, raw + addr, 4);
    return v;
  }
  void put_i16(device::Address addr, std::int16_t v) const {
    std::memcpy(raw + addr, &v, 2);
  }
};

/// A follower's copy of the leader's staged commit: the same push calls
/// in the same order, landing straight in the follower's backing store,
/// truncated at the leader's surviving byte count (a tear may split a
/// field).
class PrefixWriter {
 public:
  PrefixWriter(std::uint8_t* raw, std::size_t kept)
      : raw_(raw), kept_(kept) {}
  void push_bytes(device::Address addr, std::span<const std::uint8_t> bytes) {
    put(addr, bytes.data(), bytes.size());
  }
  void push_i16(device::Address addr, std::int16_t v) { put(addr, &v, 2); }
  void push_i32(device::Address addr, std::int32_t v) { put(addr, &v, 4); }
  void push_u32(device::Address addr, std::uint32_t v) { put(addr, &v, 4); }

 private:
  void put(device::Address addr, const void* src, std::size_t len) {
    const std::size_t bytes = std::min(len, kept_);
    std::memcpy(raw_ + addr, src, bytes);
    kept_ -= bytes;
  }
  std::uint8_t* raw_;
  std::size_t kept_;
};

/// A commit's progress indicator: the raw u32 counter, or the CRC-sealed
/// record into the alternating slot under protected progress.
struct Indicator {
  device::Address addr = 0;
  std::uint32_t counter = 0;
  std::array<std::uint8_t, kProgressRecordBytes> bytes{};
  std::size_t size = 0;

  [[nodiscard]] std::span<const std::uint8_t> payload() const {
    return {bytes.data(), size};
  }
};

Indicator indicator(const DeployedModel& model, std::uint32_t counter) {
  Indicator out;
  out.addr = model.progress_addr();
  out.counter = counter;
  if (model.protected_progress()) {
    out.addr += progress_slot(counter) * kProgressSlotStride;
    out.bytes = encode_progress_record(counter);
    out.size = kProgressRecordBytes;
  } else {
    std::memcpy(out.bytes.data(), &counter, 4);
    out.size = 4;
  }
  return out;
}

/// im2col gather table for one k-tile over one column tile: the NVM
/// address of every (column, k) input element, kPad for zero padding.
/// The naive gather recomputed the div/mod decomposition of (k, s) for
/// every MAC; the table is built once per tile and serves every row,
/// member and retry (dense rows are contiguous and need none). Only index
/// arithmetic moves: dot() issues the same reads at the same addresses in
/// the same order as the naive per-element gather.
class TileGather {
 public:
  TileGather(const LoweredNode& ln, device::Address in_buf, std::size_t k0,
             std::size_t bk, std::size_t col0, std::size_t cols)
      : base_(in_buf + k0 * 2), bk_(bk) {
    if (ln.kind == LoweredKind::kGemmDense) {
      return;
    }
    const ConvGeometry& g = ln.conv;
    const std::size_t kernel = g.kernel_h * g.kernel_w;
    util::ScratchPool& pool = util::ScratchPool::local();
    auto rows = pool.acquire<KRow>(bk);
    for (std::size_t kk = 0; kk < bk; ++kk) {
      const std::size_t k = k0 + kk;
      const std::size_t rem = k % kernel;
      rows[kk] = KRow{
          (k / kernel) * g.in_h * g.in_w,
          static_cast<std::ptrdiff_t>(rem / g.kernel_w) -
              static_cast<std::ptrdiff_t>(g.pad_h),
          static_cast<std::ptrdiff_t>(rem % g.kernel_w) -
              static_cast<std::ptrdiff_t>(g.pad_w)};
    }
    addrs_ = pool.acquire<device::Address>(cols * bk);
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t s = col0 + c;
      const auto sy = static_cast<std::ptrdiff_t>((s / g.out_w) * g.stride);
      const auto sx = static_cast<std::ptrdiff_t>((s % g.out_w) * g.stride);
      for (std::size_t kk = 0; kk < bk; ++kk) {
        const KRow& row = rows[kk];
        const std::ptrdiff_t iy = sy + row.off_y;
        const std::ptrdiff_t ix = sx + row.off_x;
        addrs_[c * bk + kk] =
            iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h) || ix < 0 ||
                    ix >= static_cast<std::ptrdiff_t>(g.in_w)
                ? kPad
                : in_buf + (row.plane + static_cast<std::size_t>(iy) * g.in_w +
                            static_cast<std::size_t>(ix)) *
                               2;
      }
    }
  }

  /// The k-tile dot product of column `c`'s inputs with weight row `w`,
  /// read through `values`; padding contributes nothing and reads nothing.
  template <typename Values>
  std::int64_t dot(const Values& values, std::size_t c,
                   const std::int16_t* w) const {
    std::int64_t acc = 0;
    if (addrs_.empty()) {
      for (std::size_t kk = 0; kk < bk_; ++kk) {
        acc += static_cast<std::int64_t>(values.i16(base_ + kk * 2)) * w[kk];
      }
      return acc;
    }
    const device::Address* addrs = addrs_.data() + c * bk_;
    for (std::size_t kk = 0; kk < bk_; ++kk) {
      if (addrs[kk] != kPad) {
        acc += static_cast<std::int64_t>(values.i16(addrs[kk])) * w[kk];
      }
    }
    return acc;
  }

 private:
  static constexpr device::Address kPad = static_cast<device::Address>(-1);
  struct KRow {
    std::size_t plane;     // cin * in_h * in_w
    std::ptrdiff_t off_y;  // khi - pad_h
    std::ptrdiff_t off_x;  // kwi - pad_w
  };

  device::Address base_;  // dense: address of lowered row k0
  std::size_t bk_;
  util::Scratch<device::Address> addrs_;  // conv only: [column][kk]
};

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

const CohortMember& leader_of(std::span<const CohortMember> members) {
  if (members.empty() || members[0].model == nullptr ||
      members[0].backend == nullptr) {
    throw std::invalid_argument(
        "IntermittentEngine: cohort needs a non-null leader");
  }
  return members[0];
}

}  // namespace

IntermittentEngine::IntermittentEngine(DeployedModel& model,
                                       Backend& backend)
    : model_(model),
      backend_(backend),
      nvm_(backend.nvm()),
      config_(model.config()),
      models_{&model},
      raws_{nullptr},
      gds_(1),
      wblocks_(1) {}

IntermittentEngine::IntermittentEngine(DeployedModel& model,
                                       device::Msp430Device& device)
    : model_(model),
      owned_backend_(std::make_unique<CycleBackend>(device)),
      backend_(*owned_backend_),
      nvm_(device.nvm()),
      config_(model.config()),
      models_{&model},
      raws_{nullptr},
      gds_(1),
      wblocks_(1) {}

IntermittentEngine::IntermittentEngine(std::span<const CohortMember> members)
    : IntermittentEngine(*leader_of(members).model,
                         *leader_of(members).backend) {
  if (members.size() == 1) {
    return;
  }
  if (model_.protected_progress() || model_.sealed_regions() > 0 ||
      model_.psum_slots() != 1 || config_.integrity.scrub_on_boot) {
    throw std::invalid_argument(
        "IntermittentEngine: integrity layer is outside the lockstep "
        "envelope");
  }
  for (const CohortMember& m : members) {
    if (m.model == nullptr || m.backend == nullptr) {
      throw std::invalid_argument("IntermittentEngine: null cohort member");
    }
    if (m.backend->trace_enabled()) {
      throw std::invalid_argument(
          "IntermittentEngine: telemetry tracing is outside the lockstep "
          "envelope");
    }
    if (m.backend->nvm().corruption() != nullptr) {
      throw std::invalid_argument(
          "IntermittentEngine: NVM corruption is outside the lockstep "
          "envelope");
    }
    if (!lockstep_compatible(model_, *m.model)) {
      throw std::invalid_argument(
          "IntermittentEngine: member deployment is not lockstep-compatible "
          "with the leader");
    }
  }
  for (std::size_t m = 1; m < members.size(); ++m) {
    models_.push_back(members[m].model);
    raws_.push_back(members[m].backend->nvm().raw_storage());
  }
  gds_.resize(members.size());
  wblocks_.resize(members.size());
}

bool IntermittentEngine::lockstep_compatible(const DeployedModel& a,
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

std::vector<std::int16_t> IntermittentEngine::quantize_input(
    std::span<const float> sample, float input_scale) {
  std::vector<std::int16_t> q(sample.size());
  for (std::size_t i = 0; i < q.size(); ++i) {
    q[i] = clamp_i16(fast_lround(sample[i] / input_scale));
  }
  return q;
}

std::int16_t IntermittentEngine::requantize(std::int64_t psum,
                                            float multiplier, bool relu) {
  const long v = fast_lround(static_cast<double>(psum) *
                             static_cast<double>(multiplier));
  std::int16_t q = clamp_i16(v);
  if (relu && q < 0) {
    q = 0;
  }
  return q;
}

void IntermittentEngine::hoist_gemms(const LoweredNode& ln) {
  for (std::size_t m = 0; m < models_.size(); ++m) {
    gds_[m] = models_[m]->node(ln.node).gemm.get();
  }
}

void IntermittentEngine::hoist_blocks(std::uint32_t slot) {
  for (std::size_t m = 0; m < models_.size(); ++m) {
    wblocks_[m] = gds_[m]->bsr.block(slot);
  }
}

template <typename Fn>
inline void IntermittentEngine::each_member(const Fn& fn) {
  fn(TypedNvm{nvm_}, std::size_t{0});
  for (std::size_t m = 1; m < models_.size(); ++m) {
    fn(RawNvm{raws_[m]}, m);
  }
}

template <typename Stage, typename Charge>
inline bool IntermittentEngine::commit(const Stage& stage, bool progress,
                                       const Charge& charge) {
  // The indicator is member-invariant: build it once, stage it last.
  const Indicator next =
      progress ? indicator(model_, job_counter_ + 1) : Indicator{};
  batch_.clear();
  stage(batch_, TypedNvm{nvm_}, std::size_t{0});
  if (progress) {
    batch_.push_bytes(next.addr, next.payload());
  }
  const bool ok = charge();
  if (models_.size() > 1) {
    // A commit that kept nothing leaves the followers untouched (the
    // retry recomputes the job). Inside the lockstep envelope the
    // indicator is the raw u32; a fixed-size push keeps the follower loop
    // free of calls.
    if (const std::size_t kept = backend_.last_staged_kept(); kept > 0) {
      for (std::size_t m = 1; m < models_.size(); ++m) {
        PrefixWriter writer(raws_[m], kept);
        stage(writer, RawNvm{raws_[m]}, m);
        if (progress) {
          writer.push_u32(next.addr, next.counter);
        }
      }
    }
  }
  return ok;
}

device::Address IntermittentEngine::psum_slot_addr(std::size_t chain_slot,
                                                   std::size_t offset) const {
  const std::size_t parity = chain_slot % model_.psum_slots();
  return model_.psum_addr() + parity * model_.psum_stride() + offset;
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
    const std::uint32_t persisted = nvm_.read_u32(model_.progress_addr());
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
      nvm_.read(model_.progress_addr() + s * kProgressSlotStride, raw);
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
    nvm_.read(r.begin, bytes);
    const std::uint16_t crc = device::crc16_ccitt(bytes);
    std::uint8_t entry[2];
    nvm_.read(model_.crc_table_addr() + k * 2, entry);
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
  hoist_gemms(ln);
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
  const GemmDeployment& gd = *gds_[0];
  const TilePlan& plan = ln.plan;
  const device::Address in_buf = model_.node(ln.inputs[0]).buffer;
  const device::Address out_buf = model_.node(ln.node).buffer;
  const bool relu = ln.relu_folded;

  // The leader's VM tile; followers recompute their values at replay.
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
        const auto stage = [&](auto& sink, const auto&, std::size_t m) {
          for (std::size_t idx = 0; idx < jobs; ++idx) {
            const std::size_t r_global = rt * plan.br + idx / cols_in;
            const std::size_t c_global = ct * plan.bc + idx % cols_in;
            sink.push_i16(out_buf + (r_global * plan.cols + c_global) * 2,
                          requantize(gds_[m]->bias_q[r_global],
                                     gds_[m]->multiplier, relu));
          }
        };
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
          if (!commit(stage, true, [&] {
                return backend_.dma_commit(batch_,
                                           jobs * 2 + config_.counter_bytes);
              })) {
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
        const std::size_t bk_actual = plan.k_in_tile(kt);
        const device::Address psum_in = first ? 0 : psum_slot_addr(ls - 1, 0);
        const device::Address psum_out = psum_slot_addr(ls, 0);
        hoist_blocks(slot);
        const TileGather gather(ln, in_buf, kt * plan.bk, bk_actual,
                                ct * plan.bc, cols_in);

        // Member m's running psum for job `idx` (psums are read from NVM,
        // untouched until this slot's commit lands).
        const auto psum = [&](const auto& values, std::size_t m,
                              std::size_t idx) -> std::int32_t {
          const std::size_t r = idx / cols_in;
          const std::size_t c = idx % cols_in;
          const std::int32_t contribution = shift_round_q15(
              gather.dot(values, c, wblocks_[m] + r * plan.bk));
          if (first) {
            return contribution;
          }
          const std::size_t elem =
              (rt * plan.br + r) * plan.cols + ct * plan.bc + c;
          return values.i32(psum_in + elem * 4) + contribution;
        };
        // Single batched commit: all outputs + the loop-index indicator
        // (staged so an injected outage can tear it mid-transfer).
        const auto stage = [&](auto& sink, const auto& values, std::size_t m) {
          for (std::size_t idx = 0; idx < jobs; ++idx) {
            const std::int32_t v = m == 0 ? tile[idx] : psum(values, m, idx);
            const std::size_t r_global = rt * plan.br + idx / cols_in;
            const std::size_t elem =
                r_global * plan.cols + ct * plan.bc + idx % cols_in;
            if (last) {
              sink.push_i16(out_buf + elem * 2,
                            requantize(static_cast<std::int64_t>(v) +
                                           gds_[m]->bias_q[r_global],
                                       gds_[m]->multiplier, relu));
            } else {
              sink.push_i32(psum_out + elem * 4, v);
            }
          }
        };

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
            tile[idx] = psum(TypedNvm{nvm_}, 0, idx);
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

          const std::size_t bytes =
              jobs * (last ? 2 : config_.psum_bytes) + config_.counter_bytes;
          if (!commit(stage, true,
                      [&] { return backend_.dma_commit(batch_, bytes); })) {
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
  const GemmDeployment& gd = *gds_[0];
  const TilePlan& plan = ln.plan;
  const device::Address in_buf = model_.node(ln.inputs[0]).buffer;
  const device::Address out_buf = model_.node(ln.node).buffer;
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
            const auto stage = [&](auto& sink, const auto&, std::size_t m) {
              sink.push_i16(out_buf + (r_global * plan.cols + c_global) * 2,
                            requantize(gds_[m]->bias_q[r_global],
                                       gds_[m]->multiplier, relu));
            };
            if (!commit(stage, true, [&] {
                  return backend_.pipelined_commit(
                      batch_, 0, 2 + config_.counter_bytes,
                      config_.cpu_cycles_per_job);
                })) {
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
        const std::size_t bk_actual = plan.k_in_tile(kt);
        const std::size_t jobs = rows_in * cols_in;
        const std::size_t write_bytes =
            (last ? 2 : config_.psum_bytes) + config_.counter_bytes;
        const device::Address psum_in = first ? 0 : psum_slot_addr(ls - 1, 0);
        const device::Address psum_out = psum_slot_addr(ls, 0);
        hoist_blocks(slot);
        const TileGather gather(ln, in_buf, kt * plan.bk, bk_actual,
                                ct * plan.bc, cols_in);

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
            const std::size_t elem = r_global * plan.cols + ct * plan.bc + c;
            const auto stage = [&](auto& sink, const auto& values,
                                   std::size_t m) {
              const std::int32_t contribution = shift_round_q15(
                  gather.dot(values, c, wblocks_[m] + r * plan.bk));
              const std::int32_t psum_new =
                  first ? contribution
                        : values.i32(psum_in + elem * 4) + contribution;
              if (last) {
                sink.push_i16(out_buf + elem * 2,
                              requantize(static_cast<std::int64_t>(psum_new) +
                                             gds_[m]->bias_q[r_global],
                                         gds_[m]->multiplier, relu));
              } else {
                sink.push_i32(psum_out + elem * 4, psum_new);
              }
            };
            if (!commit(stage, true, [&] {
                  return backend_.pipelined_commit(
                      batch_, bk_actual, write_bytes,
                      config_.cpu_cycles_per_job);
                })) {
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
  const GemmDeployment& gd = *gds_[0];
  const TilePlan& plan = ln.plan;
  const device::Address in_buf = model_.node(ln.inputs[0]).buffer;
  const device::Address out_buf = model_.node(ln.node).buffer;
  const bool relu = ln.relu_folded;

  // One VM psum tile per member, member-major.
  const std::size_t tile_elems = plan.br * plan.bc;
  auto tiles = util::ScratchPool::local().acquire<std::int32_t>(
      models_.size() * tile_elems);
  for (std::size_t rt = 0; rt < plan.row_tiles(); ++rt) {
    const std::size_t rows_in = plan.rows_in_tile(rt);
    const std::uint32_t begin = gd.bsr.row_begin(rt);
    const std::uint32_t end = gd.bsr.row_end(rt);

    for (std::size_t ct = 0; ct < plan.col_tiles(); ++ct) {
      const std::size_t cols_in = plan.cols_in_tile(ct);
      const std::size_t jobs = rows_in * cols_in;
      tiles.fill(0);
      emit_scope(telemetry::EventClass::kTile, telemetry::EventPhase::kBegin,
                 ln.name, rt * plan.col_tiles() + ct);

      for (std::uint32_t slot = begin; slot < end; ++slot) {
        const std::size_t kt = gd.bsr.col(slot);
        const std::size_t bk_actual = plan.k_in_tile(kt);
        hoist_blocks(slot);
        const TileGather gather(ln, in_buf, kt * plan.bk, bk_actual,
                                ct * plan.bc, cols_in);

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
            each_member([&](const auto& values, std::size_t m) {
              tiles[m * tile_elems + r * cols_in + c] += shift_round_q15(
                  gather.dot(values, c, wblocks_[m] + r * plan.bk));
            });
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
      each_member([&](const auto& values, std::size_t m) {
        for (std::size_t r = 0; r < rows_in; ++r) {
          for (std::size_t c = 0; c < cols_in; ++c) {
            const std::size_t r_global = rt * plan.br + r;
            const std::size_t c_global = ct * plan.bc + c;
            values.put_i16(
                out_buf + (r_global * plan.cols + c_global) * 2,
                requantize(static_cast<std::int64_t>(
                               tiles[m * tile_elems + r * cols_in + c]) +
                               gds_[m]->bias_q[r_global],
                           gds_[m]->multiplier, relu));
          }
        }
      });
      active_stats_->acc_outputs += jobs;
      active_stats_->preserved_outputs += jobs;
      emit_scope(telemetry::EventClass::kTile, telemetry::EventPhase::kEnd,
                 ln.name, rt * plan.col_tiles() + ct);
    }
  }
  return true;
}

bool IntermittentEngine::run_pool(const LoweredNode& ln) {
  const LoweredNode& in_node = model_.lowered().at(ln.inputs[0]);
  const device::Address in_buf = model_.node(ln.inputs[0]).buffer;
  const device::Address out_buf = model_.node(ln.node).buffer;

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

  const auto compute = [&](const auto& values, std::size_t c, std::size_t oy,
                           std::size_t ox) -> std::int16_t {
    std::int32_t best = -32768;
    std::int32_t sum = 0;
    for (std::size_t wy = 0; wy < p.window_h; ++wy) {
      for (std::size_t wx = 0; wx < p.window_w; ++wx) {
        const std::size_t iy = oy * p.stride + wy;
        const std::size_t ix = ox * p.stride + wx;
        const std::int16_t v =
            values.i16(in_buf + ((c * in_h + iy) * in_w + ix) * 2);
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
            const auto stage = [&](auto& sink, const auto& values,
                                   std::size_t) {
              sink.push_i16(out_addr(ox), compute(values, c, oy, ox));
            };
            if (!commit(stage, true, [&] {
                  return backend_.pipelined_commit(
                      batch_, 0, 2 + config_.counter_bytes, cycles_per_job);
                })) {
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
          const auto stage = [&](auto& sink, const auto& values,
                                 std::size_t) {
            for (std::size_t ox = 0; ox < out_w; ++ox) {
              sink.push_i16(out_addr(ox), compute(values, c, oy, ox));
            }
          };
          if (!commit(stage, true, [&] {
                return backend_.dma_commit(batch_,
                                           out_w * 2 + config_.counter_bytes);
              })) {
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
          each_member([&](const auto& values, std::size_t) {
            for (std::size_t ox = 0; ox < out_w; ++ox) {
              values.put_i16(out_addr(ox), compute(values, c, oy, ox));
            }
          });
          done = out_w;
          active_stats_->preserved_outputs += out_w;
        }
      }
    }
  }
  return true;
}

bool IntermittentEngine::run_copy(const LoweredNode& ln) {
  const device::Address out_buf = model_.node(ln.node).buffer;
  const bool immediate =
      config_.mode != PreservationMode::kAccumulateInVm;
  const bool relu = ln.kind == LoweredKind::kCopyRelu;
  const std::size_t chunk_elems = config_.copy_chunk_bytes / 2;

  std::size_t out_offset = 0;
  for (const nn::NodeId input : ln.inputs) {
    const device::Address in_buf = model_.node(input).buffer;
    const std::size_t elems = model_.lowered().at(input).out_elems;

    for (std::size_t begin = 0; begin < elems; begin += chunk_elems) {
      const std::size_t count = std::min(chunk_elems, elems - begin);
      const auto stage = [&](auto& sink, const auto& values, std::size_t m) {
        // Requantization ratio of member m (scales differ across members).
        const double ratio =
            static_cast<double>(models_[m]->node(input).scale) /
            static_cast<double>(models_[m]->node(ln.node).scale);
        for (std::size_t i = 0; i < count; ++i) {
          const std::int16_t v = values.i16(in_buf + (begin + i) * 2);
          std::int16_t out_q;
          if (relu) {
            out_q = v > 0 ? v : 0;  // same scale, exact
          } else {
            out_q = clamp_i16(fast_lround(static_cast<double>(v) * ratio));
          }
          sink.push_i16(out_buf + (out_offset + begin + i) * 2, out_q);
        }
      };
      const std::size_t write_bytes =
          count * 2 + (immediate ? config_.counter_bytes : 0);
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
        if (!commit(stage, immediate, [&] {
              return backend_.pipelined_commit(batch_, 0, write_bytes,
                                               count * 3);
            })) {
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
  if (models_.size() != 1) {
    throw std::invalid_argument(
        "IntermittentEngine::run: a cohort runs through run_quantized");
  }
  const std::vector<std::int16_t> input =
      quantize_input({sample.data(), sample.numel()}, model_.input_scale());
  const std::span<const std::int16_t> inputs[] = {input};
  InferenceResult result;
  run_members(inputs, {&result, 1});
  return result;
}

std::vector<InferenceResult> IntermittentEngine::run_quantized(
    std::span<const std::span<const std::int16_t>> inputs) {
  if (inputs.size() != models_.size()) {
    throw std::invalid_argument(
        "IntermittentEngine::run: need one input per cohort member");
  }
  std::vector<InferenceResult> results(models_.size());
  run_members(inputs, results);
  return results;
}

void IntermittentEngine::run_members(
    std::span<const std::span<const std::int16_t>> inputs,
    std::span<InferenceResult> results) {
  const LoweredGraph& lowered = model_.lowered();
  const LoweredNode& input_node = lowered.at(0);
  for (const std::span<const std::int16_t>& input : inputs) {
    if (input.size() != input_node.out_elems) {
      throw std::invalid_argument("IntermittentEngine::run: sample size " +
                                  std::to_string(input.size()) +
                                  " != model input " +
                                  std::to_string(input_node.out_elems));
    }
  }

  InferenceResult& result = results[0];
  active_stats_ = &result.stats;
  const device::DeviceStats before = backend_.stats();

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

  // Load the quantized input sample into its NVM buffer, and reset the
  // progress region. Idempotent, so a mid-write failure just retries (a
  // torn prefix is simply overwritten by the retry).
  const device::Address in_buf = model_.node(0).buffer;
  const std::size_t payload = input_node.out_elems * 2;
  const auto stage_input = [&](auto& sink, const auto&, std::size_t m) {
    sink.push_bytes(
        in_buf,
        {reinterpret_cast<const std::uint8_t*>(inputs[m].data()), payload});
  };
  const auto stage_reset = [&](auto& sink, const auto&, std::size_t) {
    if (model_.protected_progress()) {
      const auto record = encode_progress_record(0);
      sink.push_bytes(model_.progress_addr(), record);
      sink.push_bytes(model_.progress_addr() + kProgressSlotStride, record);
    } else {
      sink.push_u32(model_.progress_addr(), 0);
    }
  };
  const std::size_t reset_charge =  // 8 matches the classic progress reset
      model_.protected_progress() ? 2 * kProgressRecordBytes : 8;

  bool finished = false;
  std::size_t attempts = 0;
  while (!finished) {
    if (probe_ != nullptr) {
      probe_->on_attempt(attempts);
    }
    ++attempts;
    job_counter_ = 0;
    pending_recovery_ = false;

    std::size_t retries = 0;
    bool loaded = false;
    while (!loaded) {
      if (++retries > kMaxOpRetries) {
        retry_overflow("input load");
      }
      if (!commit(stage_input, false,
                  [&] { return backend_.dma_commit(batch_, payload); })) {
        continue;
      }
      if (!commit(stage_reset, false,
                  [&] { return backend_.dma_commit(batch_, reset_charge); })) {
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
    const std::size_t out_elems = lowered.at(lowered.output).out_elems;
    each_member([&](const auto& values, std::size_t m) {
      const NodeDeployment& out_nd = models_[m]->node(lowered.output);
      std::vector<float>& logits = results[m].logits;
      logits.resize(out_elems);
      for (std::size_t i = 0; i < out_elems; ++i) {
        logits[i] = static_cast<float>(values.i16(out_nd.buffer + i * 2)) *
                    out_nd.scale;
      }
    });
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

  // The timeline is member-invariant: every member reports the leader's.
  for (std::size_t m = 1; m < results.size(); ++m) {
    results[m].stats = result.stats;
    results[m].per_node = result.per_node;
  }
}

}  // namespace iprune::engine
