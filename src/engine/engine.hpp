#pragma once
// HAWAII+ intermittent inference engine.
//
// Executes a DeployedModel on the simulated device. In kImmediate mode
// every accelerator output is written back to NVM paired with the job
// counter (progress preservation); after a power failure the engine
// re-reads the progress indicator, re-fetches the interrupted operation's
// tile context, and re-executes only the interrupted job (progress
// recovery). In kAccumulateInVm mode outputs accumulate in VM and a power
// failure restarts the entire inference — the conventional flow that is
// only viable under continuous power.
//
// Lockstep cohorts. One engine runs 1..N members that share everything
// structural — lowered plans, BSR sparsity pattern, NVM layout, supply,
// outage schedule, preservation mode — and differ only in data values
// (weights, biases, scales, input samples). The control flow never
// branches on data values, so every member traverses the same chargeable
// events with the same latencies, energies and fault ordinals. Member 0
// (the leader) drives every charge, commit, fault-hook event, probe
// callback, telemetry scope and integrity step through its Backend. The
// followers do only their own value work, straight at their NVM backing
// stores, and stage nothing: after each commit resolves they copy in the
// leader's surviving byte prefix (last_staged_kept()), so a torn commit
// replays exactly, mid-field tears included. A cohort of one is the
// standalone engine; every member's logits are bit-identical to its own
// standalone run.
//
// The lockstep envelope, checked by the cohort constructor when N >= 2:
// no integrity layer, no NVM corruption model, no tracing, and every
// member lockstep_compatible() with the leader.

#include <memory>
#include <span>
#include <vector>

#include "engine/backend.hpp"
#include "engine/deploy.hpp"
#include "engine/probe.hpp"
#include "telemetry/sink.hpp"

namespace iprune::engine {

struct InferenceStats {
  double latency_s = 0.0;
  double on_s = 0.0;
  double off_s = 0.0;
  double nvm_read_s = 0.0;
  double nvm_write_s = 0.0;
  double lea_s = 0.0;
  double cpu_s = 0.0;
  double reboot_s = 0.0;
  double energy_j = 0.0;
  std::size_t power_failures = 0;
  std::size_t acc_outputs = 0;       // committed GEMM jobs
  std::size_t preserved_outputs = 0; // all committed jobs (GEMM+pool+copy)
  std::size_t nvm_bytes_read = 0;
  std::size_t nvm_bytes_written = 0;
  std::size_t macs = 0;
  std::size_t restarts = 0;  // kAccumulateInVm only
  /// Jobs whose computation was lost to a power failure and re-executed
  /// (kImmediate loses at most the interrupted job; kTaskAtomic loses the
  /// whole interrupted task).
  std::size_t reexecuted_jobs = 0;
  /// Recoveries that found a torn or corrupt progress record and rolled
  /// back to the older valid one (protect_progress only).
  std::size_t integrity_rollbacks = 0;
  /// Sealed regions that failed the boot scrub (the first failure throws
  /// IntegrityError, so this is 0 or 1 per run).
  std::size_t scrub_failures = 0;
  bool completed = true;
};

/// Per-node wall-clock share of one inference (on-time + off-time spent
/// while the node was executing).
struct NodeLatency {
  nn::NodeId node = 0;
  std::string name;
  double latency_s = 0.0;
};

struct InferenceResult {
  std::vector<float> logits;  // dequantized output activations
  InferenceStats stats;
  std::vector<NodeLatency> per_node;  // execution order, non-alias nodes
};

/// One lockstep cohort member. Non-owning; both must outlive the engine.
/// Member 0's backend carries the cohort's timeline; follower backends
/// only lend their NVM images (their clocks stay parked after deployment).
struct CohortMember {
  DeployedModel* model = nullptr;
  Backend* backend = nullptr;
};

class IntermittentEngine {
 public:
  /// Execute against any backend (the model must have been deployed into
  /// the same backend's NVM).
  IntermittentEngine(DeployedModel& model, Backend& backend);
  /// Convenience: wraps `device` in an engine-owned CycleBackend view —
  /// the historical constructor, unchanged semantics.
  IntermittentEngine(DeployedModel& model, device::Msp430Device& device);
  /// A lockstep cohort led by members[0]. Throws std::invalid_argument
  /// when the cohort is empty or a member is null, and, for two or more
  /// members, when the configuration is outside the lockstep envelope or
  /// a member is not lockstep_compatible() with the leader.
  explicit IntermittentEngine(std::span<const CohortMember> members);

  /// Run one end-to-end inference for a single sample (per-sample shape,
  /// no batch dimension) on a one-member engine. In kAccumulateInVm mode
  /// the inference restarts from scratch after each power failure, up to
  /// `max_restarts`; if it still cannot finish, stats.completed is false
  /// (nontermination) with stats.restarts == max_restarts exactly.
  InferenceResult run(const nn::Tensor& sample);

  /// Run one inference per member, in lockstep. inputs[m] is member m's
  /// sample as quantize_input() returns it. Logits are per member; stats
  /// and per_node are the leader's (member-invariant) timeline.
  std::vector<InferenceResult> run_quantized(
      std::span<const std::span<const std::int16_t>> inputs);

  /// Observe progress commits / recoveries (nullptr disables). Non-owning;
  /// the probe must outlive any run() it observes.
  void set_probe(StateProbe* probe) { probe_ = probe; }

  /// The engine's input quantization:
  /// clamp_i16(lround(sample[i] / input_scale)).
  [[nodiscard]] static std::vector<std::int16_t> quantize_input(
      std::span<const float> sample, float input_scale);

  /// Requantize a finished psum to the layer's int16 output:
  /// clamp_i16(lround(psum * multiplier)), floored at 0 under a folded
  /// ReLU.
  [[nodiscard]] static std::int16_t requantize(std::int64_t psum,
                                               float multiplier, bool relu);

  /// Structural equality of two deployments: identical lowered graphs,
  /// tile plans, BSR sparsity patterns, NVM layout addresses and engine
  /// configuration. Data values (weights, biases, scales) may differ.
  [[nodiscard]] static bool lockstep_compatible(const DeployedModel& a,
                                                const DeployedModel& b);

  std::size_t max_restarts = 64;

 private:
  /// The shared run body: one inference per member into results[m].
  void run_members(std::span<const std::span<const std::int16_t>> inputs,
                   std::span<InferenceResult> results);

  // Node executors; return false only when kAccumulateInVm execution was
  // interrupted by a power failure (kImmediate mode self-recovers).
  bool run_gemm(const LoweredNode& ln);
  bool run_pool(const LoweredNode& ln);
  bool run_copy(const LoweredNode& ln);

  // GEMM helpers.
  bool run_gemm_immediate(const LoweredNode& ln);
  bool run_gemm_task(const LoweredNode& ln);
  bool run_gemm_accumulate(const LoweredNode& ln);

  /// Point gds_ at every member's deployment of GEMM node `ln`, and
  /// wblocks_ at every member's weight block for BSR slot `slot`.
  void hoist_gemms(const LoweredNode& ln);
  void hoist_blocks(std::uint32_t slot);

  /// Call fn(values, m) for every member m: the leader through typed Nvm
  /// access, the followers through their raw backing stores.
  template <typename Fn>
  void each_member(const Fn& fn);

  /// One staged commit for the whole cohort: stage(sink, values, m)
  /// pushes member m's payload and, with `progress`, the next commit's
  /// progress indicator follows it (the raw u32, or the CRC-sealed record
  /// into the alternating slot when protected). The indicator is always
  /// the payload's LAST part, so a torn write can lose the record but
  /// never land a record whose data didn't. The leader's payload lands in
  /// batch_ and `charge()` resolves it on the backend; then every
  /// follower replays the surviving byte prefix. Returns charge()'s
  /// verdict.
  template <typename Stage, typename Charge>
  bool commit(const Stage& stage, bool progress, const Charge& charge);

  /// Charge the DMA reads that bring one op's input tile into VM.
  [[nodiscard]] bool charge_input_tile_reads(const LoweredNode& ln,
                                             std::size_t bk_actual,
                                             std::size_t bc_actual);

  /// NVM address of partial sum `offset` for k-chain slot `chain_slot`
  /// (double-buffered by slot parity under protected progress).
  [[nodiscard]] device::Address psum_slot_addr(std::size_t chain_slot,
                                               std::size_t offset) const;

  /// VM-side bookkeeping after a successful commit: bump the counter,
  /// notify the probe, emit the telemetry instant.
  void note_commit();

  /// Post-failure recovery: charge the progress-indicator re-read, then
  /// verify the persisted counter matches the engine's own job count — the
  /// core crash-consistency assertion (a mismatch means a commit was torn
  /// or reordered). Under protected progress a torn/corrupt record instead
  /// rolls back to the newest valid one (counted in integrity_rollbacks);
  /// both records corrupt throws IntegrityError. Returns false if the
  /// re-read itself browned out.
  [[nodiscard]] bool recover_progress();

  /// Boot scrub: charge a full read of every sealed region plus its
  /// checksum word and verify the CRC. Throws IntegrityError on the first
  /// mismatch. Returns false if a read browned out (caller retries).
  [[nodiscard]] bool scrub_regions();

  void emit_integrity_event(const std::string& name, std::uint64_t seq);

  /// Emit a scoped telemetry event (inference/layer/tile begin-end)
  /// stamped with the current simulated time. No-op under the null sink.
  void emit_scope(telemetry::EventClass cls, telemetry::EventPhase phase,
                  const std::string& name, std::uint64_t seq);

  DeployedModel& model_;  // the leader's deployment
  std::unique_ptr<Backend> owned_backend_;  // the Msp430Device ctor only
  Backend& backend_;
  device::Nvm& nvm_;  // the leader's NVM
  const EngineConfig& config_;
  device::WriteBatch batch_;  // the leader's staging buffer

  // Per-member state, indexed by member (the leader is 0).
  std::vector<const DeployedModel*> models_;
  std::vector<std::uint8_t*> raws_;  // follower backing stores; [0] unused
  std::vector<const GemmDeployment*> gds_;
  std::vector<const std::int16_t*> wblocks_;

  std::uint32_t job_counter_ = 0;
  bool pending_recovery_ = false;
  InferenceStats* active_stats_ = nullptr;
  StateProbe* probe_ = nullptr;
};

}  // namespace iprune::engine
