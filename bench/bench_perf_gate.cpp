// bench_perf_gate: the perf-regression gate behind the CI `perf-gate` job.
//
// Runs a fixed set of median-of-k timed scenarios — the GEMM micro-kernels
// (optimized and retained-naive reference), a Conv2d::infer, the
// Conv2d::backward of fine-tuning (dense and 70% masked), the BSR
// packing and Q15 quantization deploy steps, one end-to-end intermittent
// inference, a sensitivity sweep, and the fleet simulator — and writes
// BENCH_PERF.json (schema util::PerfReport). With --check the report is
// compared against the checked-in baseline and the process exits nonzero
// on a regression, a checksum change (the kernels' numerics drifted), or
// a missing entry.
//
// Usage:
//   bench_perf_gate [--out FILE] [--check] [--baseline FILE]
//                   [--write-baseline] [--tol X]
//
// Tolerance precedence: --tol, then IPRUNE_PERF_TOL, then 2.5 (the CLI
// default is looser than util::kDefaultPerfTolerance because gate runs
// share CI boxes with other jobs; see docs/performance.md).

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/sensitivity.hpp"
#include "data/synthetic.hpp"
#include "engine/bsr.hpp"
#include "engine/engine.hpp"
#include "fleet/orchestrator.hpp"
#include "nn/activation.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/gemm.hpp"
#include "nn/pool.hpp"
#include "nn/quantize.hpp"
#include "nn/trainer.hpp"
#include "power/supply.hpp"
#include "util/atomic_write.hpp"
#include "util/perf_gate.hpp"
#include "util/rng.hpp"

#ifndef IPRUNE_PERF_BASELINE_DEFAULT
#define IPRUNE_PERF_BASELINE_DEFAULT "bench/baselines/BENCH_PERF.baseline.json"
#endif

namespace {

using iprune::util::PerfEntry;
using iprune::util::PerfReport;

/// FNV-1a over raw bytes: folds a scenario's numerical output into a
/// machine-independent fingerprint (all scenario math is deterministic).
class Checksum {
 public:
  void fold(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  void fold_floats(const float* data, std::size_t count) {
    fold(data, count * sizeof(float));
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Median wall time of `iters` calls to fn() (each call must redo the
/// full scenario; outputs are checksummed by the caller on one extra
/// untimed warmup call).
template <typename Fn>
std::uint64_t median_ns(std::size_t iters, Fn&& fn) {
  std::vector<std::uint64_t> samples;
  samples.reserve(iters);
  for (std::size_t i = 0; i < iters; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

struct GemmInputs {
  std::vector<float> a;
  std::vector<float> b;
  std::vector<float> c;
};

GemmInputs make_gemm_inputs(std::size_t m, std::size_t k, std::size_t n,
                            double density, std::uint64_t seed) {
  iprune::util::Rng rng(seed);
  GemmInputs in;
  in.a.resize(m * k);
  in.b.resize(k * n);
  in.c.resize(m * n, 0.0f);
  for (float& v : in.a) {
    v = rng.uniform() < density
            ? static_cast<float>(rng.uniform(-1.0, 1.0))
            : 0.0f;
  }
  for (float& v : in.b) {
    v = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return in;
}

using GemmFn = void (*)(const float*, const float*, float*, std::size_t,
                        std::size_t, std::size_t);

PerfEntry time_gemm(const std::string& name, GemmFn fn, std::size_t m,
                    std::size_t k, std::size_t n, double density,
                    std::size_t iters) {
  GemmInputs in = make_gemm_inputs(m, k, n, density, 42);
  Checksum sum;
  std::fill(in.c.begin(), in.c.end(), 0.0f);
  fn(in.a.data(), in.b.data(), in.c.data(), m, k, n);
  sum.fold_floats(in.c.data(), in.c.size());
  PerfEntry e;
  e.name = name;
  e.iters = iters;
  e.checksum = sum.value();
  e.median_ns = median_ns(iters, [&] {
    std::fill(in.c.begin(), in.c.end(), 0.0f);
    fn(in.a.data(), in.b.data(), in.c.data(), m, k, n);
  });
  return e;
}

PerfEntry time_conv_infer(std::size_t iters) {
  iprune::util::Rng rng(7);
  iprune::nn::Conv2d conv(
      "gate_conv",
      iprune::nn::Conv2dSpec{.in_channels = 8, .out_channels = 16,
                             .kernel_h = 3, .kernel_w = 3, .pad_h = 1,
                             .pad_w = 1},
      rng);
  iprune::nn::Tensor input({2, 8, 16, 16});
  for (std::size_t i = 0; i < input.numel(); ++i) {
    input[i] = static_cast<float>(rng.normal(0.0, 0.5));
  }
  const iprune::nn::Tensor* ins[] = {&input};
  Checksum sum;
  const iprune::nn::Tensor out = conv.infer(ins);
  sum.fold_floats(out.data(), out.numel());
  PerfEntry e;
  e.name = "conv2d_infer_8x16x16";
  e.iters = iters;
  e.checksum = sum.value();
  e.median_ns = median_ns(iters, [&] { (void)conv.infer(ins); });
  return e;
}

PerfEntry time_conv_backward(const std::string& name, double pruned,
                             std::size_t iters) {
  // HAR conv2 (Cout 32, K 80, S 64) at batch 32, the fine-tuning hot spot.
  // Its upstream gradient comes from a ReLU and a 1x2 max-pool, as in the
  // model, so most of it is zero. `pruned` is the share of 2x8 weight
  // blocks the mask removes. The checksum covers dW, db and dInput.
  namespace nn = iprune::nn;
  iprune::util::Rng rng(11);
  nn::Conv2d conv("gate_conv2",
                  nn::Conv2dSpec{.in_channels = 16, .out_channels = 32,
                                 .kernel_h = 1, .kernel_w = 5, .pad_w = 2},
                  rng);
  constexpr std::size_t kBlockRows = 2;
  constexpr std::size_t kBlockCols = 8;
  nn::Tensor& mask = conv.weight_mask();
  const std::size_t block_cols = mask.dim(1) / kBlockCols;
  const std::size_t blocks = mask.dim(0) / kBlockRows * block_cols;
  const std::vector<std::size_t> order = rng.permutation(blocks);
  for (std::size_t b = 0;
       b < static_cast<std::size_t>(pruned * static_cast<double>(blocks));
       ++b) {
    const std::size_t r0 = order[b] / block_cols * kBlockRows;
    const std::size_t c0 = order[b] % block_cols * kBlockCols;
    for (std::size_t r = r0; r < r0 + kBlockRows; ++r) {
      for (std::size_t c = c0; c < c0 + kBlockCols; ++c) {
        mask.at(r, c) = 0.0f;
      }
    }
  }
  conv.apply_mask();
  nn::Relu relu("gate_relu");
  nn::MaxPool2d pool("gate_pool", nn::PoolSpec{1, 2, 2});
  nn::Tensor input({32, 16, 1, 64});
  for (std::size_t i = 0; i < input.numel(); ++i) {
    input[i] = static_cast<float>(rng.normal(0.0, 0.5));
  }
  const nn::Tensor* conv_in[] = {&input};
  const nn::Tensor conv_out = conv.forward(conv_in, /*training=*/true);
  const nn::Tensor* relu_in[] = {&conv_out};
  const nn::Tensor relu_out = relu.forward(relu_in, true);
  const nn::Tensor* pool_in[] = {&relu_out};
  nn::Tensor upstream = pool.forward(pool_in, true);
  for (std::size_t i = 0; i < upstream.numel(); ++i) {
    upstream[i] = static_cast<float>(rng.normal());
  }
  const nn::Tensor grad_out =
      relu.backward(pool.backward(upstream, true)[0], true)[0];

  Checksum sum;
  conv.zero_grads();
  const std::vector<nn::Tensor> grads = conv.backward(grad_out, true);
  for (const nn::ParamRef& p : conv.params()) {
    sum.fold_floats(p.grad->data(), p.grad->numel());
  }
  sum.fold_floats(grads[0].data(), grads[0].numel());
  PerfEntry e;
  e.name = name;
  e.iters = iters;
  e.checksum = sum.value();
  e.median_ns = median_ns(iters, [&] {
    conv.zero_grads();
    (void)conv.backward(grad_out, true);
  });
  return e;
}

PerfEntry time_bsr_build(std::size_t iters) {
  // Deploy-time packing of a half-zero 64x768 FC weight matrix into 4x12
  // LEA blocks; the checksum covers the whole packed layout.
  namespace engine = iprune::engine;
  namespace nn = iprune::nn;
  iprune::util::Rng rng(3);
  engine::TilePlan plan;
  plan.rows = 64;
  plan.cols = 1;
  plan.k = 768;
  plan.br = 4;
  plan.bk = 12;
  plan.bc = 1;
  nn::Tensor dense({plan.rows, plan.k});
  for (std::size_t i = 0; i < dense.numel(); ++i) {
    dense[i] = rng.bernoulli(0.5) ? static_cast<float>(rng.normal()) : 0.0f;
  }
  const nn::QTensor q = nn::quantize_q15(dense);
  nn::Tensor mask(dense.shape());
  for (std::size_t i = 0; i < mask.numel(); ++i) {
    mask[i] = dense[i] != 0.0f ? 1.0f : 0.0f;
  }
  const engine::BlockMask bmask = engine::BlockMask::from_dense(mask, plan);
  const engine::BsrMatrix bsr = engine::BsrMatrix::build(q, bmask, plan);
  Checksum sum;
  sum.fold(bsr.row_ptr().data(),
           bsr.row_ptr().size() * sizeof(std::uint32_t));
  sum.fold(bsr.col_idx().data(),
           bsr.col_idx().size() * sizeof(std::uint32_t));
  sum.fold(bsr.values().data(), bsr.values().size() * sizeof(std::int16_t));
  PerfEntry e;
  e.name = "bsr_build_64x768";
  e.iters = iters;
  e.checksum = sum.value();
  e.median_ns = median_ns(
      iters, [&] { (void)engine::BsrMatrix::build(q, bmask, plan); });
  return e;
}

PerfEntry time_quantize_q15(std::size_t iters) {
  iprune::util::Rng rng(4);
  iprune::nn::Tensor t({65536});
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal());
  }
  const iprune::nn::QTensor q = iprune::nn::quantize_q15(t);
  Checksum sum;
  sum.fold(q.data.data(), q.data.size() * sizeof(std::int16_t));
  sum.fold(&q.scale, sizeof(q.scale));
  PerfEntry e;
  e.name = "quantize_q15_65536";
  e.iters = iters;
  e.checksum = sum.value();
  e.median_ns =
      median_ns(iters, [&] { (void)iprune::nn::quantize_q15(t); });
  return e;
}

/// Small conv+dense graph, the shape of the engine test models.
iprune::nn::Graph make_engine_graph(iprune::util::Rng& rng) {
  namespace nn = iprune::nn;
  nn::Graph g({2, 8, 8});
  auto conv = g.add(std::make_unique<nn::Conv2d>(
                        "conv",
                        nn::Conv2dSpec{.in_channels = 2, .out_channels = 6,
                                       .kernel_h = 3, .kernel_w = 3,
                                       .pad_h = 1, .pad_w = 1},
                        rng),
                    {g.input()});
  auto relu = g.add(std::make_unique<nn::Relu>("relu"), {conv});
  auto pool = g.add(std::make_unique<nn::MaxPool2d>("pool",
                                                    nn::PoolSpec{2, 2, 2}),
                    {relu});
  auto flat = g.add(std::make_unique<nn::Flatten>("flatten"), {pool});
  auto fc = g.add(std::make_unique<nn::Dense>("fc", 6 * 4 * 4, 5, rng),
                  {flat});
  g.set_output(fc);
  return g;
}

PerfEntry time_engine_e2e(std::size_t iters) {
  namespace nn = iprune::nn;
  iprune::util::Rng rng(99);
  nn::Graph graph = make_engine_graph(rng);
  nn::Tensor calib({16, 2, 8, 8});
  for (std::size_t i = 0; i < calib.numel(); ++i) {
    calib[i] = static_cast<float>(rng.normal(0.0, 0.5));
  }
  iprune::device::Msp430Device device(
      iprune::device::DeviceConfig::msp430fr5994(),
      std::make_unique<iprune::power::ConstantSupply>(
          iprune::power::SupplyPresets::kContinuousW));
  iprune::engine::EngineConfig config;
  iprune::engine::DeployedModel model(graph, config, device, calib);
  iprune::engine::IntermittentEngine eng(model, device);
  nn::Tensor sample({2, 8, 8});
  for (std::size_t i = 0; i < sample.numel(); ++i) {
    sample[i] = static_cast<float>(rng.normal(0.0, 0.5));
  }
  Checksum sum;
  const auto warm = eng.run(sample);
  sum.fold_floats(warm.logits.data(), warm.logits.size());
  PerfEntry e;
  e.name = "engine_e2e_infer";
  e.backend = iprune::engine::BackendConfig::msp430_fram().describe();
  e.iters = iters;
  e.checksum = sum.value();
  e.median_ns = median_ns(iters, [&] { (void)eng.run(sample); });
  return e;
}

PerfEntry time_sensitivity_sweep(std::size_t iters) {
  namespace nn = iprune::nn;
  iprune::util::Rng rng(3);
  nn::Graph graph({2});
  auto h = graph.add(std::make_unique<nn::Dense>("hidden", 2, 32, rng),
                     {graph.input()});
  auto r = graph.add(std::make_unique<nn::Relu>("r"), {h});
  auto o = graph.add(std::make_unique<nn::Dense>("out", 32, 2, rng), {r});
  graph.set_output(o);
  nn::Tensor x({300, 2});
  std::vector<int> y(300);
  for (std::size_t i = 0; i < 300; ++i) {
    const bool cls = rng.bernoulli(0.5);
    x.at(i, 0) =
        (cls ? 1.5f : -1.5f) + static_cast<float>(rng.normal(0, 0.3));
    x.at(i, 1) = static_cast<float>(rng.normal(0, 0.3));
    y[i] = cls ? 1 : 0;
  }
  nn::TrainConfig tc;
  tc.epochs = 5;
  nn::Trainer(graph).train(x, y, tc);
  std::vector<iprune::engine::PrunableLayer> layers =
      iprune::engine::prunable_layers(graph, iprune::engine::EngineConfig{},
                                      iprune::device::MemoryConfig{});
  iprune::core::SensitivityConfig cfg;
  Checksum sum;
  const std::vector<double> drops =
      iprune::core::analyze_sensitivities(graph, layers, x, y, cfg);
  sum.fold(drops.data(), drops.size() * sizeof(double));
  PerfEntry e;
  e.name = "sensitivity_sweep_mlp";
  e.iters = iters;
  e.checksum = sum.value();
  e.median_ns = median_ns(iters, [&] {
    (void)iprune::core::analyze_sensitivities(graph, layers, x, y, cfg);
  });
  return e;
}

PerfEntry time_fleet_sim(std::size_t iters, iprune::fleet::SimKind sim,
                         const std::string& name) {
  // Small fixed heterogeneous fleet on a 1-lane pool: times the whole
  // orchestrator path (spec resolution, device construction, inference,
  // aggregation) without scheduler noise. The checksum is the fleet
  // digest, so numeric drift anywhere in the device stack trips the gate.
  // Timed per sim kind; both kinds must produce the identical digest, so
  // the two entries' checksums double as a cross-mode equivalence gate.
  iprune::fleet::FleetSpec spec = iprune::fleet::FleetSpec::example(16);
  spec.inferences = 2;
  spec.sim = sim;
  const iprune::fleet::FleetOrchestrator orchestrator(spec);
  iprune::runtime::ThreadPool pool(1);
  PerfEntry e;
  e.name = name;
  e.backend = spec.groups[0].backend.describe();
  e.iters = iters;
  e.checksum = orchestrator.run(&pool).checksum;
  e.median_ns = median_ns(iters, [&] { (void)orchestrator.run(&pool); });
  return e;
}

PerfReport run_all() {
  constexpr std::size_t kM = 64;
  constexpr std::size_t kMicroIters = 33;
  PerfReport report;
  report.add(time_gemm("gemm_dense_64", iprune::nn::gemm_accumulate, kM, kM,
                       kM, 1.0, kMicroIters));
  report.add(time_gemm("gemm_ref_dense_64", iprune::nn::ref::gemm_accumulate,
                       kM, kM, kM, 1.0, kMicroIters));
  report.add(time_gemm("gemm_sparse90_64", iprune::nn::gemm_accumulate, kM,
                       kM, kM, 0.1, kMicroIters));
  report.add(time_gemm("gemm_at_b_64", iprune::nn::gemm_at_b, kM, kM, kM,
                       1.0, kMicroIters));
  report.add(time_gemm("gemm_a_bt_64", iprune::nn::gemm_a_bt, kM, kM, kM,
                       1.0, kMicroIters));
  report.add(time_conv_infer(17));
  report.add(time_conv_backward("conv2d_backward_har2_dense", 0.0, 9));
  report.add(time_conv_backward("conv2d_backward_har2_masked70", 0.7, 9));
  report.add(time_bsr_build(kMicroIters));
  report.add(time_quantize_q15(kMicroIters));
  report.add(time_engine_e2e(7));
  report.add(time_sensitivity_sweep(5));
  report.add(
      time_fleet_sim(5, iprune::fleet::SimKind::kStepping, "fleet_sim_16"));
  report.add(time_fleet_sim(5, iprune::fleet::SimKind::kBatched,
                            "fleet_sim_16_batched"));
  const PerfEntry* stepping = report.find("fleet_sim_16");
  const PerfEntry* batched = report.find("fleet_sim_16_batched");
  if (stepping != nullptr && batched != nullptr &&
      batched->checksum != stepping->checksum) {
    throw std::runtime_error(
        "fleet_sim_16_batched: fleet digest diverged from the stepping "
        "oracle — sim modes are no longer bit-identical");
  }

  const PerfEntry* opt = report.find("gemm_dense_64");
  const PerfEntry* ref = report.find("gemm_ref_dense_64");
  if (opt != nullptr && ref != nullptr && opt->median_ns > 0) {
    std::cout << "dense GEMM speedup vs naive reference: "
              << static_cast<double>(ref->median_ns) /
                     static_cast<double>(opt->median_ns)
              << "x\n";
  }
  return report;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  // Temp-file + rename: a run killed mid-report never tears BENCH_PERF.json.
  iprune::util::atomic_write_or_throw(path, text, "bench_perf_gate");
}

int usage(int code) {
  std::cout
      << "bench_perf_gate [--out FILE] [--check] [--baseline FILE]\n"
         "                [--write-baseline] [--tol X]\n"
         "  --out FILE         report path (default BENCH_PERF.json)\n"
         "  --baseline FILE    baseline path (default "
      << IPRUNE_PERF_BASELINE_DEFAULT
      << ")\n"
         "  --check            compare the run against the baseline; exit\n"
         "                     1 on regression/checksum-change/missing\n"
         "  --write-baseline   re-baseline: write the report to --baseline\n"
         "  --tol X            slowdown tolerance (also IPRUNE_PERF_TOL)\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_PERF.json";
  std::string baseline_path = IPRUNE_PERF_BASELINE_DEFAULT;
  bool check = false;
  bool write_baseline = false;
  double tolerance = 2.5;
  if (const char* env = std::getenv("IPRUNE_PERF_TOL")) {
    tolerance = std::atof(env);
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(usage(2));
      }
      return argv[++i];
    };
    if (arg == "--out") {
      out_path = next();
    } else if (arg == "--baseline") {
      baseline_path = next();
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--write-baseline") {
      write_baseline = true;
    } else if (arg == "--tol") {
      tolerance = std::atof(next().c_str());
    } else if (arg == "--help" || arg == "-h") {
      return usage(0);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return usage(2);
    }
  }
  if (tolerance <= 0.0) {
    std::cerr << "tolerance must be positive\n";
    return 2;
  }

  try {
    const PerfReport report = run_all();
    write_file(out_path, report.to_json());
    std::cout << "report written to " << out_path << " ("
              << report.entries.size() << " entries)\n";
    if (write_baseline) {
      write_file(baseline_path, report.to_json());
      std::cout << "baseline written to " << baseline_path << "\n";
    }
    if (check) {
      const PerfReport baseline =
          PerfReport::from_json(read_file(baseline_path));
      const iprune::util::PerfGateResult verdict =
          iprune::util::compare(baseline, report, tolerance);
      std::cout << verdict.summary;
      return verdict.passed ? 0 : 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "bench_perf_gate: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
