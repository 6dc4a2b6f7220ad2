#include "nn/conv2d.hpp"

#include <cassert>
#include <stdexcept>

#include "nn/gemm.hpp"
#include "nn/init.hpp"
#include "util/scratch_pool.hpp"

namespace iprune::nn {

Conv2d::Conv2d(std::string name, Conv2dSpec spec, util::Rng& rng)
    : Layer(std::move(name)),
      spec_(spec),
      weight_({spec.out_channels, spec.in_channels * spec.kernel_h *
                                      spec.kernel_w}),
      bias_({spec.out_channels}),
      mask_({spec.out_channels,
             spec.in_channels * spec.kernel_h * spec.kernel_w}),
      weight_grad_(weight_.shape()),
      bias_grad_(bias_.shape()) {
  kaiming_uniform(weight_, lowered_k(), rng);
  mask_.fill(1.0f);
}

std::size_t Conv2d::out_h(std::size_t in_h) const {
  assert(in_h + 2 * spec_.pad_h >= spec_.kernel_h);
  return (in_h + 2 * spec_.pad_h - spec_.kernel_h) / spec_.stride + 1;
}

std::size_t Conv2d::out_w(std::size_t in_w) const {
  assert(in_w + 2 * spec_.pad_w >= spec_.kernel_w);
  return (in_w + 2 * spec_.pad_w - spec_.kernel_w) / spec_.stride + 1;
}

Shape Conv2d::output_shape(std::span<const Shape> input_shapes) const {
  if (input_shapes.size() != 1 || input_shapes[0].size() != 3) {
    throw std::invalid_argument(name() + ": expects one [C,H,W] input");
  }
  const Shape& in = input_shapes[0];
  if (in[0] != spec_.in_channels) {
    throw std::invalid_argument(name() + ": channel mismatch, got " +
                                shape_str(in));
  }
  return {spec_.out_channels, out_h(in[1]), out_w(in[2])};
}

void Conv2d::im2col(const float* input, std::size_t in_h, std::size_t in_w,
                    float* col, std::size_t k_stride,
                    std::size_t s_stride) const {
  const std::size_t ho = out_h(in_h);
  const std::size_t wo = out_w(in_w);
  std::size_t k_row = 0;
  for (std::size_t c = 0; c < spec_.in_channels; ++c) {
    const float* in_plane = input + c * in_h * in_w;
    for (std::size_t kh = 0; kh < spec_.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < spec_.kernel_w; ++kw, ++k_row) {
        float* col_row = col + k_row * k_stride;
        for (std::size_t oy = 0; oy < ho; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * spec_.stride + kh) -
              static_cast<std::ptrdiff_t>(spec_.pad_h);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(in_h)) {
            for (std::size_t ox = 0; ox < wo; ++ox) {
              col_row[(oy * wo + ox) * s_stride] = 0.0f;
            }
            continue;
          }
          const float* in_row =
              in_plane + static_cast<std::size_t>(iy) * in_w;
          for (std::size_t ox = 0; ox < wo; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * spec_.stride + kw) -
                static_cast<std::ptrdiff_t>(spec_.pad_w);
            col_row[(oy * wo + ox) * s_stride] =
                (ix < 0 || ix >= static_cast<std::ptrdiff_t>(in_w))
                    ? 0.0f
                    : in_row[static_cast<std::size_t>(ix)];
          }
        }
      }
    }
  }
}

void Conv2d::col2im(const float* col_t, std::size_t in_h, std::size_t in_w,
                    float* grad_input) const {
  // k_row stays the outer loop: it fixes the order in which each input
  // element receives its terms, and so the rounding of the sum.
  const std::size_t ho = out_h(in_h);
  const std::size_t wo = out_w(in_w);
  const std::size_t k = lowered_k();
  std::size_t k_row = 0;
  for (std::size_t c = 0; c < spec_.in_channels; ++c) {
    float* grad_plane = grad_input + c * in_h * in_w;
    for (std::size_t kh = 0; kh < spec_.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < spec_.kernel_w; ++kw, ++k_row) {
        const float* col_column = col_t + k_row;
        for (std::size_t oy = 0; oy < ho; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * spec_.stride + kh) -
              static_cast<std::ptrdiff_t>(spec_.pad_h);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(in_h)) {
            continue;
          }
          float* grad_row = grad_plane + static_cast<std::size_t>(iy) * in_w;
          for (std::size_t ox = 0; ox < wo; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * spec_.stride + kw) -
                static_cast<std::ptrdiff_t>(spec_.pad_w);
            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(in_w)) {
              continue;
            }
            grad_row[static_cast<std::size_t>(ix)] +=
                col_column[(oy * wo + ox) * k];
          }
        }
      }
    }
  }
}

Tensor Conv2d::infer(std::span<const Tensor* const> inputs) const {
  assert(inputs.size() == 1);
  const Tensor& input = *inputs[0];
  assert(input.rank() == 4 && input.dim(1) == spec_.in_channels);
  const std::size_t batch = input.dim(0);
  const std::size_t in_h = input.dim(2);
  const std::size_t in_w = input.dim(3);
  const std::size_t ho = out_h(in_h);
  const std::size_t wo = out_w(in_w);
  const std::size_t spatial = ho * wo;
  const std::size_t k = lowered_k();

  Tensor output({batch, spec_.out_channels, ho, wo});
  // Lane-local scratch: im2col overwrites every element, so reused bytes
  // are fine, and infer() stays safe under parallel_map (one pool per lane).
  auto col = util::ScratchPool::local().acquire<float>(k * spatial);
  for (std::size_t n = 0; n < batch; ++n) {
    im2col(input.data() + n * spec_.in_channels * in_h * in_w, in_h, in_w,
           col.data(), spatial, 1);
    float* out_mat = output.data() + n * spec_.out_channels * spatial;
    gemm_accumulate(weight_.data(), col.data(), out_mat, spec_.out_channels,
                    k, spatial);
    for (std::size_t c = 0; c < spec_.out_channels; ++c) {
      const float b = bias_[c];
      float* out_row = out_mat + c * spatial;
      for (std::size_t s = 0; s < spatial; ++s) {
        out_row[s] += b;
      }
    }
  }
  return output;
}

Tensor Conv2d::forward(std::span<const Tensor* const> inputs, bool training) {
  if (training) {
    cached_input_ = *inputs[0];
  }
  return infer(inputs);
}

std::vector<Tensor> Conv2d::backward(const Tensor& grad_output,
                                     bool need_input_grads) {
  const Tensor& input = cached_input_;
  assert(input.rank() == 4);
  const std::size_t batch = input.dim(0);
  const std::size_t in_h = input.dim(2);
  const std::size_t in_w = input.dim(3);
  const std::size_t ho = out_h(in_h);
  const std::size_t wo = out_w(in_w);
  const std::size_t spatial = ho * wo;
  const std::size_t k = lowered_k();

  // Both products run over the transposed im2col buffer col_t [S, K], so
  // both are axpy-form kernels whose sparse path skips the zero dOut
  // entries that ReLU and max-pool leave in most rows. Each result keeps
  // the rounding sequence of the dot-product form (docs/performance.md,
  // "Training backward").
  auto& pool = util::ScratchPool::local();
  auto col_t = pool.acquire<float>(spatial * k);
  auto sample_grad = pool.acquire<float>(spec_.out_channels * k);
  util::Scratch<float> grad_col_t;
  Tensor grad_input;
  if (need_input_grads) {
    grad_col_t = pool.acquire<float>(spatial * k);
    grad_input = Tensor(input.shape());
  }
  for (std::size_t n = 0; n < batch; ++n) {
    im2col(input.data() + n * spec_.in_channels * in_h * in_w, in_h, in_w,
           col_t.data(), 1, k);
    const float* grad_mat =
        grad_output.data() + n * spec_.out_channels * spatial;
    // dW[Cout,K] += dOut[Cout,S] * col_t[S,K]: each sample's sum starts at
    // +0 and is added to dW once, as a per-element dot product would be.
    sample_grad.fill(0.0f);
    gemm_accumulate(grad_mat, col_t.data(), sample_grad.data(),
                    spec_.out_channels, spatial, k);
    float* weight_grad = weight_grad_.data();
    const float* sample = sample_grad.data();
    for (std::size_t i = 0; i < weight_grad_.numel(); ++i) {
      weight_grad[i] += sample[i];
    }
    // db[Cout] += row sums of dOut
    for (std::size_t c = 0; c < spec_.out_channels; ++c) {
      const float* grad_row = grad_mat + c * spatial;
      float acc = 0.0f;
      for (std::size_t s = 0; s < spatial; ++s) {
        acc += grad_row[s];
      }
      bias_grad_[c] += acc;
    }
    if (!need_input_grads) {
      continue;
    }
    // dcol_t[S,K] = dOut^T[S,Cout] * W[Cout,K]
    grad_col_t.fill(0.0f);
    gemm_at_b(grad_mat, weight_.data(), grad_col_t.data(), spatial,
              spec_.out_channels, k);
    col2im(grad_col_t.data(), in_h, in_w,
           grad_input.data() + n * spec_.in_channels * in_h * in_w);
  }
  if (!need_input_grads) {
    return {};
  }
  std::vector<Tensor> grads;
  grads.push_back(std::move(grad_input));
  return grads;
}

std::vector<ParamRef> Conv2d::params() {
  return {{&weight_, &weight_grad_, &mask_}, {&bias_, &bias_grad_, nullptr}};
}

void Conv2d::apply_mask() {
  weight_.hadamard(mask_);
}

}  // namespace iprune::nn
