#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/autograd/gradcheck.h"
#include "src/autograd/ops.h"
#include "src/autograd/variable.h"
#include "src/signal/dct.h"
#include "src/signal/kernels.h"
#include "src/tensor/ops.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "tests/test_helpers.h"

namespace blurnet::autograd {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(Variable, LeafAndConstant) {
  auto leaf = Variable::leaf(Tensor::scalar(2.0f));
  auto constant = Variable::constant(Tensor::scalar(3.0f));
  EXPECT_TRUE(leaf.requires_grad());
  EXPECT_FALSE(constant.requires_grad());
  EXPECT_FLOAT_EQ(leaf.scalar_value(), 2.0f);
}

TEST(Variable, ScalarValueThrowsOnNonScalar) {
  auto v = Variable::leaf(Tensor::zeros(Shape::vec(3)));
  EXPECT_THROW(v.scalar_value(), std::logic_error);
}

TEST(Variable, NoGradGuardDisablesGraphBuilding) {
  auto w = Variable::leaf(Tensor::scalar(2.0f), true);
  {
    // Under the guard, ops over requires-grad leaves must come out as plain
    // constants — this is what keeps the serving forward graph-free (and
    // conv2d's column matrix in scratch) with trained parameters.
    NoGradGuard no_grad;
    EXPECT_FALSE(grad_enabled());
    auto y = mul(w, w);
    EXPECT_FALSE(y.requires_grad());
    EXPECT_FLOAT_EQ(y.scalar_value(), 4.0f);
  }
  EXPECT_TRUE(grad_enabled());
  auto y = mul(w, w);
  EXPECT_TRUE(y.requires_grad());
}

TEST(Ops, Conv2dInferencePathMatchesGradPath) {
  util::Rng rng(21);
  const auto x = Tensor::randn(Shape::nchw(2, 3, 8, 8), rng);
  const auto w = Tensor::randn(Shape{4, 3, 3, 3}, rng, 0.0f, 0.2f);
  const auto b = Tensor::randn(Shape::vec(4), rng);
  const auto weights = Variable::leaf(w.clone(), true);
  const auto bias = Variable::leaf(b.clone(), true);
  const auto grad_path = conv2d(Variable::constant(x), weights, bias, 1, 1).value();
  Tensor fast_path;
  {
    NoGradGuard no_grad;
    fast_path = conv2d(Variable::constant(x), weights, bias, 1, 1).value();
  }
  for (std::int64_t i = 0; i < grad_path.numel(); ++i) {
    EXPECT_EQ(fast_path[i], grad_path[i]);  // bitwise: same arithmetic, reused scratch
  }
}

TEST(Backward, SimpleChain) {
  // y = (2x + 1)^2 summed; dy/dx = 2 * (2x+1) * 2.
  auto x = Variable::leaf(Tensor::from_vector({1.0f, -2.0f}));
  auto y = sum(mul(add_scalar(mul_scalar(x, 2.0f), 1.0f),
                   add_scalar(mul_scalar(x, 2.0f), 1.0f)));
  backward(y);
  EXPECT_FLOAT_EQ(y.scalar_value(), 9.0f + 9.0f);
  EXPECT_FLOAT_EQ(x.grad()[0], 12.0f);   // 4*(2*1+1)
  EXPECT_FLOAT_EQ(x.grad()[1], -12.0f);  // 4*(2*-2+1)
}

TEST(Backward, GradientAccumulatesAcrossUses) {
  // y = x*x uses x twice; gradient is 2x.
  auto x = Variable::leaf(Tensor::from_vector({3.0f}));
  auto y = sum(mul(x, x));
  backward(y);
  EXPECT_FLOAT_EQ(x.grad()[0], 6.0f);
}

TEST(Backward, NoGradIntoConstants) {
  auto x = Variable::leaf(Tensor::from_vector({1.0f}));
  auto c = Variable::constant(Tensor::from_vector({5.0f}));
  auto y = sum(mul(x, c));
  backward(y);
  EXPECT_FLOAT_EQ(x.grad()[0], 5.0f);
  EXPECT_FALSE(c.has_grad());
}

TEST(Backward, NonScalarRootThrows) {
  auto x = Variable::leaf(Tensor::zeros(Shape::vec(3)));
  auto y = mul_scalar(x, 2.0f);
  EXPECT_THROW(backward(y), std::invalid_argument);
}

TEST(Backward, InferenceBuildsNoGraph) {
  auto x = Variable::constant(Tensor::from_vector({1.0f, 2.0f}));
  auto y = relu(add_scalar(x, 1.0f));
  EXPECT_FALSE(y.requires_grad());
  EXPECT_TRUE(y.node()->parents().empty());
}

TEST(Backward, ZeroGradClears) {
  auto x = Variable::leaf(Tensor::from_vector({1.0f}));
  auto y = sum(mul_scalar(x, 3.0f));
  backward(y);
  EXPECT_FLOAT_EQ(x.grad()[0], 3.0f);
  x.zero_grad();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0f);
}

TEST(Backward, DiamondGraphTopologicalOrder) {
  // y = a*b + a; both paths must be accumulated exactly once.
  auto a = Variable::leaf(Tensor::from_vector({2.0f}));
  auto b = Variable::leaf(Tensor::from_vector({5.0f}));
  auto y = sum(add(mul(a, b), a));
  backward(y);
  EXPECT_FLOAT_EQ(a.grad()[0], 6.0f);  // b + 1
  EXPECT_FLOAT_EQ(b.grad()[0], 2.0f);  // a
}

TEST(Ops, ReluForward) {
  auto x = Variable::constant(Tensor::from_vector({-1.0f, 2.0f}));
  const auto y = relu(x);
  EXPECT_FLOAT_EQ(y.value()[0], 0.0f);
  EXPECT_FLOAT_EQ(y.value()[1], 2.0f);
}

TEST(Ops, DenseMatchesManual) {
  auto x = Variable::constant(Tensor(Shape::mat(1, 2), {1.0f, 2.0f}));
  auto w = Variable::constant(Tensor(Shape::mat(2, 2), {1.0f, 0.0f, 0.0f, 1.0f}));
  auto b = Variable::constant(Tensor::from_vector({0.5f, -0.5f}));
  const auto y = dense(x, w, b);
  EXPECT_FLOAT_EQ(y.value().at2(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(y.value().at2(0, 1), 1.5f);
}

TEST(Ops, DenseInferenceFastPathBitwiseEqualsGraphPath) {
  // The no-grad dense result (no graph node, constant result) must be
  // bitwise equal to the graph-mode result, as for the convolutions.
  util::Rng rng(11);
  const Tensor xv = Tensor::randn(Shape::mat(7, 33), rng);
  const Tensor wv = Tensor::randn(Shape::mat(33, 18), rng);
  const Tensor bv = Tensor::randn(Shape::vec(18), rng);

  // Graph path: a grad-requiring input forces the make_op route.
  auto x_graph = Variable::leaf(xv.clone(), /*requires_grad=*/true);
  const auto graph =
      dense(x_graph, Variable::constant(wv), Variable::constant(bv)).value();

  // No-grad: no gradients anywhere.
  NoGradGuard no_grad;
  const auto fast =
      dense(Variable::constant(xv), Variable::constant(wv), Variable::constant(bv)).value();
  ASSERT_EQ(fast.shape(), graph.shape());
  for (std::int64_t i = 0; i < fast.numel(); ++i) {
    ASSERT_EQ(fast[i], graph[i]) << "element " << i;
  }

  // Bias-free form stays bitwise equal too.
  Variable no_bias;
  const auto fast_nb = dense(Variable::constant(xv), Variable::constant(wv), no_bias).value();
  for (std::int64_t i = 0; i < fast_nb.numel(); ++i) {
    ASSERT_EQ(fast_nb[i], tensor::matmul(xv, wv)[i]) << "element " << i;
  }
}

TEST(Ops, FlattenSharesStorageInBothModes) {
  util::Rng rng(13);
  const Tensor xv = Tensor::randn(Shape::nchw(2, 3, 4, 4), rng);
  {
    // Inference: flatten is a zero-copy reshape of the activations.
    NoGradGuard no_grad;
    const auto flat = flatten2d(Variable::constant(xv));
    EXPECT_EQ(flat.shape(), Shape::mat(2, 48));
    EXPECT_TRUE(flat.value().shares_storage_with(xv));
  }
  // Training: the graph node shares storage too — its backward reshapes only
  // the gradient, never the value.
  auto leaf = Variable::leaf(xv.clone(), /*requires_grad=*/true);
  const auto flat = flatten2d(leaf);
  EXPECT_TRUE(flat.requires_grad());
  EXPECT_TRUE(flat.value().shares_storage_with(leaf.value()));
  for (std::int64_t i = 0; i < flat.value().numel(); ++i) {
    ASSERT_EQ(flat.value()[i], xv[i]);
  }
  // The gradient still reaches the NCHW leaf through flatten -> dense.
  const Tensor wv = Tensor::randn(Shape::mat(48, 5), rng, 0.0f, 0.2f);
  const auto result = gradcheck(
      [&](const Variable& x) {
        return sum_squares(dense(flatten2d(x), Variable::constant(wv), Variable()));
      },
      xv);
  EXPECT_TRUE(result.passed) << "max_rel_error=" << result.max_rel_error;
}

TEST(Ops, Conv2dIdentityKernel) {
  // 1x1 kernel of value 1 == identity mapping.
  util::Rng rng(5);
  auto x = Variable::constant(Tensor::randn(Shape::nchw(1, 1, 4, 4), rng));
  auto w = Variable::constant(Tensor::full(Shape{1, 1, 1, 1}, 1.0f));
  const auto y = conv2d(x, w, Variable(), 1, 0);
  for (std::int64_t i = 0; i < x.value().numel(); ++i) {
    EXPECT_FLOAT_EQ(y.value()[i], x.value()[i]);
  }
}

TEST(Ops, Conv2dStrideAndPadShapes) {
  auto x = Variable::constant(Tensor::zeros(Shape::nchw(2, 3, 32, 32)));
  util::Rng rng(6);
  auto w = Variable::constant(Tensor::randn(Shape{8, 3, 5, 5}, rng));
  auto b = Variable::constant(Tensor::zeros(Shape::vec(8)));
  EXPECT_EQ(conv2d(x, w, b, 2, 2).shape(), Shape::nchw(2, 8, 16, 16));
  EXPECT_EQ(conv2d(x, w, b, 1, 2).shape(), Shape::nchw(2, 8, 32, 32));
}

TEST(Ops, DepthwiseIdentityKernelIsIdentity) {
  util::Rng rng(7);
  auto x = Variable::constant(Tensor::randn(Shape::nchw(2, 3, 6, 6), rng));
  Tensor kernel(Shape{3, 3, 3});
  for (int c = 0; c < 3; ++c) kernel[(c * 3 + 1) * 3 + 1] = 1.0f;  // centre taps
  const auto y = depthwise_conv2d_same(x, Variable::constant(kernel), Variable());
  for (std::int64_t i = 0; i < x.value().numel(); ++i) {
    EXPECT_NEAR(y.value()[i], x.value()[i], 1e-6);
  }
}

TEST(Ops, DepthwiseMatchesSignalFilterInterior) {
  // Depthwise conv with a shared box kernel == signal::filter2d_depthwise in
  // the interior. Borders differ by design: the autograd op zero-pads (it
  // must stay linear for gradcheck) while the signal filter renormalizes by
  // the in-bounds kernel mass.
  util::Rng rng(8);
  auto x = Tensor::randn(Shape::nchw(1, 2, 8, 8), rng);
  Tensor kernel_stack(Shape{2, 3, 3});
  for (int c = 0; c < 2; ++c)
    for (int i = 0; i < 9; ++i) kernel_stack[c * 9 + i] = 1.0f / 9.0f;
  const auto via_op = depthwise_conv2d_same(Variable::constant(x),
                                            Variable::constant(kernel_stack), Variable());
  const auto via_signal = signal::filter2d_depthwise(x, signal::make_blur_kernel(3));
  for (std::int64_t c = 0; c < 2; ++c)
    for (std::int64_t y = 1; y < 7; ++y)
      for (std::int64_t xx = 1; xx < 7; ++xx) {
        EXPECT_NEAR(via_op.value().at4(0, c, y, xx), via_signal.at4(0, c, y, xx), 1e-5);
      }
}

// Zero-padded depthwise correlation written out the slow way: every tap is
// read (out-of-bounds taps read 0), double accumulator, ascending (fy, fx).
Tensor naive_depthwise_same(const Tensor& x, const Tensor& w) {
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const std::int64_t kh = w.dim(1), kw = w.dim(2), ph = kh / 2, pw = kw / 2;
  Tensor out(x.shape());
  for (std::int64_t p = 0; p < n * c; ++p) {
    const float* src = x.data() + p * h * wd;
    const float* ker = w.data() + (p % c) * kh * kw;
    for (std::int64_t y = 0; y < h; ++y) {
      for (std::int64_t xx = 0; xx < wd; ++xx) {
        double acc = 0.0;
        for (std::int64_t fy = 0; fy < kh; ++fy) {
          for (std::int64_t fx = 0; fx < kw; ++fx) {
            const std::int64_t sy = y + fy - ph, sx = xx + fx - pw;
            const bool inside = sy >= 0 && sy < h && sx >= 0 && sx < wd;
            acc += static_cast<double>(ker[fy * kw + fx]) * (inside ? src[sy * wd + sx] : 0.0f);
          }
        }
        out[p * h * wd + y * wd + xx] = static_cast<float>(acc);
      }
    }
  }
  return out;
}

struct DepthwiseCase {
  std::int64_t n, c, h, w;
  std::int64_t kh, kw;
};
// Border-heavy: most (often all) output pixels have taps outside the plane.
constexpr DepthwiseCase kDepthwiseBorderCases[] = {
    {2, 3, 3, 7, 5, 5}, {1, 2, 1, 1, 3, 3}, {1, 2, 4, 2, 3, 5},
    {2, 1, 6, 5, 4, 2}, {1, 3, 2, 3, 7, 7}, {1, 16, 9, 9, 5, 5}};

TEST(Ops, DepthwiseBitwiseEqualsNaiveZeroPaddedReference) {
  util::Rng rng(31);
  for (const DepthwiseCase& k : kDepthwiseBorderCases) {
    const Tensor xv = Tensor::randn(Shape::nchw(k.n, k.c, k.h, k.w), rng);
    const Tensor wv = Tensor::randn(Shape{k.c, k.kh, k.kw}, rng);
    const Tensor expected = naive_depthwise_same(xv, wv);
    // Graph mode: a grad-requiring kernel makes the op build a node.
    const auto graph =
        depthwise_conv2d_same(Variable::constant(xv), Variable::leaf(wv.clone()), Variable());
    ASSERT_TRUE(graph.requires_grad());
    NoGradGuard no_grad;
    const auto inference =
        depthwise_conv2d_same(Variable::constant(xv), Variable::constant(wv), Variable());
    for (std::int64_t i = 0; i < expected.numel(); ++i) {
      ASSERT_EQ(graph.value()[i], expected[i]) << "graph, kernel " << k.kh << "x" << k.kw
                                               << " on " << k.h << "x" << k.w << ", elem " << i;
      ASSERT_EQ(inference.value()[i], expected[i]) << "no-grad, kernel " << k.kh << "x" << k.kw
                                                   << " on " << k.h << "x" << k.w << ", elem " << i;
    }
  }
}

TEST(Ops, DepthwiseNonFiniteTapReachesBordersInBothModes) {
  // Padding reads are real zero terms, so an infinite tap poisons every output
  // pixel (inf * 0 is NaN at the borders), in graph mode and without a graph.
  const Tensor xv = Tensor::full(Shape::nchw(1, 1, 3, 3), 1.0f);
  Tensor wv(Shape{1, 3, 3});
  wv[0] = std::numeric_limits<float>::infinity();  // top-left tap
  const auto graph =
      depthwise_conv2d_same(Variable::constant(xv), Variable::leaf(wv.clone()), Variable());
  NoGradGuard no_grad;
  const auto inference =
      depthwise_conv2d_same(Variable::constant(xv), Variable::constant(wv), Variable());
  for (std::int64_t i = 0; i < xv.numel(); ++i) {
    EXPECT_FALSE(std::isfinite(graph.value()[i])) << "graph elem " << i;
    EXPECT_FALSE(std::isfinite(inference.value()[i])) << "no-grad elem " << i;
  }
  EXPECT_TRUE(std::isnan(graph.value()[0]));  // the top-left tap reads padding here
  EXPECT_TRUE(std::isnan(inference.value()[0]));
}

// The depthwise input gradient written out the slow way: the 180-degree
// rotated kernel correlated with the zero-padded upstream gradient (every tap
// read, out-of-bounds taps read 0), double accumulator, ascending rotated
// taps. The adjoint of a k/2 "same" pad pads k-1-k/2 rows above and columns
// to the left.
Tensor naive_depthwise_input_grad(const Tensor& g, const Tensor& w) {
  const std::int64_t n = g.dim(0), c = g.dim(1), h = g.dim(2), wd = g.dim(3);
  const std::int64_t kh = w.dim(1), kw = w.dim(2);
  const std::int64_t top = kh - 1 - kh / 2, left = kw - 1 - kw / 2;
  Tensor dx(g.shape());
  for (std::int64_t p = 0; p < n * c; ++p) {
    const float* gp = g.data() + p * h * wd;
    const float* ker = w.data() + (p % c) * kh * kw;
    for (std::int64_t y = 0; y < h; ++y) {
      for (std::int64_t xx = 0; xx < wd; ++xx) {
        double acc = 0.0;
        for (std::int64_t ry = 0; ry < kh; ++ry) {
          for (std::int64_t rx = 0; rx < kw; ++rx) {
            const float tap = ker[(kh - 1 - ry) * kw + (kw - 1 - rx)];
            const std::int64_t sy = y + ry - top, sx = xx + rx - left;
            const bool inside = sy >= 0 && sy < h && sx >= 0 && sx < wd;
            acc += static_cast<double>(tap) * (inside ? gp[sy * wd + sx] : 0.0f);
          }
        }
        dx[p * h * wd + y * wd + xx] = static_cast<float>(acc);
      }
    }
  }
  return dx;
}

// d(sum(y * g))/dx for y = depthwise_conv2d_same(x, w): the op's input
// gradient for the upstream gradient g, exactly (1.0f * g == g).
Tensor depthwise_input_grad(const Tensor& xv, const Variable& w, const Tensor& g) {
  Variable x = Variable::leaf(xv.clone());
  backward(sum(mul_const(depthwise_conv2d_same(x, w, Variable()), g)));
  return x.grad().clone();
}

TEST(Ops, DepthwiseInputGradientBitwiseEqualsNaiveRotatedReference) {
  util::Rng rng(33);
  for (const DepthwiseCase& k : kDepthwiseBorderCases) {
    const Tensor xv = Tensor::randn(Shape::nchw(k.n, k.c, k.h, k.w), rng);
    const Tensor wv = Tensor::randn(Shape{k.c, k.kh, k.kw}, rng);
    const Tensor g = Tensor::randn(xv.shape(), rng);
    const Tensor expected = naive_depthwise_input_grad(g, wv);
    // A frozen kernel (input gradient only) and a learnable one (both).
    const Tensor frozen = depthwise_input_grad(xv, Variable::constant(wv), g);
    const Tensor learnable = depthwise_input_grad(xv, Variable::leaf(wv.clone()), g);
    for (std::int64_t i = 0; i < expected.numel(); ++i) {
      ASSERT_EQ(frozen[i], expected[i]) << "kernel " << k.kh << "x" << k.kw << " on " << k.h
                                        << "x" << k.w << ", elem " << i;
      ASSERT_EQ(learnable[i], expected[i]) << "learnable kernel " << k.kh << "x" << k.kw
                                           << " on " << k.h << "x" << k.w << ", elem " << i;
    }
  }
}

TEST(Ops, DepthwiseNonFiniteTapReachesInputGradientBorders) {
  // The adjoint reads the zero-padded gradient, so an infinite tap poisons
  // every input-gradient pixel, NaN where it meets the padding: the forward's
  // rule, transposed.
  const Tensor xv = Tensor::full(Shape::nchw(1, 1, 3, 3), 1.0f);
  Tensor wv(Shape{1, 3, 3});
  wv[0] = std::numeric_limits<float>::infinity();  // top-left tap
  const Tensor g = Tensor::full(xv.shape(), 1.0f);
  const Tensor dx = depthwise_input_grad(xv, Variable::constant(wv), g);
  for (std::int64_t i = 0; i < dx.numel(); ++i) {
    EXPECT_FALSE(std::isfinite(dx[i])) << "elem " << i;
  }
  // The top-left tap of x[2][2]'s adjoint window reads padding.
  EXPECT_TRUE(std::isnan(dx[8]));
}

TEST(Ops, DepthwiseBiasBroadcastsPerChannel) {
  // The bias is added inside the per-plane loop: channel c gets b[c] at
  // every pixel.
  const auto x = Variable::constant(Tensor::zeros(Shape::nchw(2, 2, 2, 2)));
  const auto w = Variable::constant(Tensor::zeros(Shape{2, 3, 3}));
  const auto b = Variable::constant(Tensor::from_vector({1.0f, -1.0f}));
  const Tensor out = depthwise_conv2d_same(x, w, b).value();
  EXPECT_FLOAT_EQ(out.at4(0, 0, 1, 1), 1.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 1, 0, 0), -1.0f);
  EXPECT_FLOAT_EQ(out.at4(1, 0, 0, 1), 1.0f);
  EXPECT_FLOAT_EQ(out.at4(1, 1, 1, 0), -1.0f);
}

// ---- fused conv2d + ReLU and the per-image conv loop --------------------------

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * static_cast<std::size_t>(a.numel())) ==
             0;
}

enum class ConvMode { kGraph, kNoGrad, kFrozen };

struct ConvRun {
  Tensor y, dx, dw, db;
};

// One conv forward (fused, or relu over conv2d), plus the gradients of
// sum(y * r) with respect to whichever of x, w, b the mode differentiates.
ConvRun run_conv(bool fused, ConvMode mode, const Tensor& x, const Tensor& w, const Tensor* b,
                 int stride, int pad, const Tensor& r) {
  // Frozen weights are non-grad leaves; under NoGradGuard every leaf still
  // requires a gradient, and the guard alone keeps the forward graph-free.
  const bool params = mode != ConvMode::kFrozen;
  Variable xv = Variable::leaf(x.clone());
  Variable wv = Variable::leaf(w.clone(), params);
  Variable bv = b ? Variable::leaf(b->clone(), params) : Variable();
  auto forward = [&] {
    return fused ? conv2d_relu(xv, wv, bv, stride, pad) : relu(conv2d(xv, wv, bv, stride, pad));
  };
  ConvRun run;
  if (mode == ConvMode::kNoGrad) {
    NoGradGuard no_grad;
    run.y = forward().value();
    return run;
  }
  const Variable y = forward();
  run.y = y.value();
  backward(sum(mul_const(y, r)));
  run.dx = xv.grad();
  if (mode == ConvMode::kGraph) {
    run.dw = wv.grad();
    if (b) run.db = bv.grad();
  }
  return run;
}

TEST(Ops, Conv2dReluBitwiseEqualsReluOfConv2d) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  util::Rng rng(61);
  for (const bool with_nan : {false, true}) {
    // Image 0 holds ±0 (and optionally a NaN), channel 1 of image 1 is
    // all-negative, image 2 is all zeros; zero bias entries make exact-zero
    // pre-activations.
    Tensor x = Tensor::randn(Shape::nchw(3, 2, 7, 6), rng);
    x[0] = 0.0f;
    x[1] = -0.0f;
    x[5] = -0.0f;
    if (with_nan) x[20] = nan;
    float* negative_plane = x.data() + (1 * 2 + 1) * 42;
    for (std::int64_t i = 0; i < 42; ++i) {
      negative_plane[i] = -std::fabs(negative_plane[i]) - 0.1f;
    }
    for (std::int64_t i = 0; i < 84; ++i) x[2 * 84 + i] = (i % 2) ? 0.0f : -0.0f;
    const Tensor w = Tensor::randn(Shape{5, 2, 3, 3}, rng, 0.0f, 0.5f);
    const Tensor b(Shape::vec(5), {0.3f, 0.0f, -0.2f, -0.0f, 0.1f});
    for (const int stride : {1, 2}) {
      for (const int pad : {0, 2}) {
        for (const bool with_bias : {true, false}) {
          const Tensor* bias = with_bias ? &b : nullptr;
          const std::int64_t side_h = (7 + 2 * pad - 3) / stride + 1;
          const std::int64_t side_w = (6 + 2 * pad - 3) / stride + 1;
          Tensor r = Tensor::randn(Shape::nchw(3, 5, side_h, side_w), rng);
          r[3] = 0.0f;
          for (const ConvMode mode : {ConvMode::kGraph, ConvMode::kNoGrad, ConvMode::kFrozen}) {
            SCOPED_TRACE(::testing::Message() << "nan " << with_nan << " stride " << stride
                                              << " pad " << pad << " bias " << with_bias
                                              << " mode " << static_cast<int>(mode));
            const ConvRun fused = run_conv(true, mode, x, w, bias, stride, pad, r);
            const ConvRun reference = run_conv(false, mode, x, w, bias, stride, pad, r);
            EXPECT_TRUE(same_bits(fused.y, reference.y));
            EXPECT_TRUE(same_bits(fused.dx, reference.dx));
            EXPECT_TRUE(same_bits(fused.dw, reference.dw));
            EXPECT_TRUE(same_bits(fused.db, reference.db));
            if (mode == ConvMode::kGraph) {
              EXPECT_EQ(fused.dw.shape(), w.shape());
              if (with_bias) {
                EXPECT_EQ(fused.db.shape(), b.shape());
              }
            }
          }
        }
      }
    }
  }
}

TEST(Ops, Conv2dReluBackwardMasksWhereOutputIsZero) {
  // A negative pre-activation gets no gradient; a positive one passes it.
  const auto x = Variable::leaf(Tensor(Shape::nchw(1, 1, 1, 2), {2.0f, -3.0f}));
  const auto w = Variable::constant(Tensor(Shape{1, 1, 1, 1}, {1.0f}));
  const Variable y = conv2d_relu(x, w, Variable(), 1, 0);
  EXPECT_FLOAT_EQ(y.value()[0], 2.0f);
  EXPECT_FLOAT_EQ(y.value()[1], 0.0f);
  backward(sum(y));
  EXPECT_FLOAT_EQ(x.node()->grad()[0], 1.0f);
  EXPECT_FLOAT_EQ(x.node()->grad()[1], 0.0f);
}

// conv2d and conv2d_relu on `x` as one batch, then image by image.
void expect_batch_equals_per_image_calls(const Tensor& x, const Tensor& w, const Tensor& b,
                                         int stride, int pad) {
  NoGradGuard no_grad;
  const auto wv = Variable::constant(w), bv = Variable::constant(b);
  for (const bool fused : {false, true}) {
    auto op = [&](const Tensor& in) {
      const auto xv = Variable::constant(in);
      return (fused ? conv2d_relu(xv, wv, bv, stride, pad) : conv2d(xv, wv, bv, stride, pad))
          .value();
    };
    const Tensor batched = op(x);
    const std::int64_t n = x.dim(0);
    const std::int64_t in_size = x.numel() / n, out_size = batched.numel() / n;
    for (std::int64_t i = 0; i < n; ++i) {
      Tensor one(Shape::nchw(1, x.dim(1), x.dim(2), x.dim(3)));
      std::copy(x.data() + i * in_size, x.data() + (i + 1) * in_size, one.data());
      const Tensor single = op(one);
      ASSERT_EQ(single.numel(), out_size);
      ASSERT_EQ(std::memcmp(single.data(), batched.data() + i * out_size,
                            sizeof(float) * static_cast<std::size_t>(out_size)),
                0)
          << "fused " << fused << " image " << i;
    }
  }
}

// Fills this thread's (and the pool workers') conv scratch with nonzero
// floats from a larger shape than the calls that follow.
void dirty_conv_scratch() {
  util::Rng rng(77);
  NoGradGuard no_grad;
  const auto x = Variable::constant(Tensor::randn(Shape::nchw(8, 16, 20, 20), rng, 5.0f, 1.0f));
  const auto w = Variable::constant(Tensor::randn(Shape{8, 16, 5, 5}, rng));
  (void)conv2d(x, w, Variable(), 1, 3);
  (void)depthwise_conv2d_same(x, Variable::constant(Tensor::randn(Shape{16, 7, 7}, rng)),
                              Variable());
}

TEST(Ops, Conv2dBatchEqualsPerImageCalls) {
  util::Rng rng(63);
  const Tensor x = Tensor::randn(Shape::nchw(64, 3, 12, 12), rng);
  const Tensor w = Tensor::randn(Shape{8, 3, 5, 5}, rng, 0.0f, 0.3f);
  const Tensor b = Tensor::randn(Shape::vec(8), rng);
  // A pure-pad image: a 1x1 input padded by 2, so 24 of the 25 floats each
  // 5x5 window reads are padding.
  const Tensor dot_x(Shape::nchw(1, 1, 1, 1), {1.5f});
  const Tensor dot_w = Tensor::randn(Shape{4, 1, 5, 5}, rng);
  const Tensor dot_b = Tensor::randn(Shape::vec(4), rng);
  auto dot_conv = [&] {
    NoGradGuard no_grad;
    return conv2d(Variable::constant(dot_x), Variable::constant(dot_w),
                  Variable::constant(dot_b), 1, 2)
        .value();
  };
  Tensor fresh_thread_dot;
  std::thread([&] { fresh_thread_dot = dot_conv(); }).join();
  for (const int workers : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "workers " << workers);
    util::set_parallel_workers(workers);
    for (const int stride : {1, 2}) {
      dirty_conv_scratch();
      expect_batch_equals_per_image_calls(x, w, b, stride, 2);
      expect_batch_equals_per_image_calls(x, w, b, stride, 0);
    }
    dirty_conv_scratch();
    const Tensor dot = dot_conv();
    EXPECT_TRUE(same_bits(dot, fresh_thread_dot));
    for (std::int64_t f = 0; f < 4; ++f) {
      // Only the center tap sees the image; every padded float is zero.
      const float product = dot_w[f * 25 + 12] * 1.5f;
      EXPECT_EQ(dot[f], product + dot_b[f]) << "filter " << f;
    }
  }
  util::reset_parallel_workers();
}

TEST(Ops, MaxPoolForward) {
  Tensor x(Shape::nchw(1, 1, 2, 2), {1.0f, 5.0f, 3.0f, 2.0f});
  const auto y = maxpool2d(Variable::constant(x), 2, 2);
  EXPECT_EQ(y.value().numel(), 1);
  EXPECT_FLOAT_EQ(y.value()[0], 5.0f);
}

TEST(Ops, SoftmaxCrossEntropyUniformLogits) {
  auto logits = Variable::constant(Tensor::zeros(Shape::mat(2, 4)));
  const auto loss = softmax_cross_entropy(logits, {0, 3});
  EXPECT_NEAR(loss.scalar_value(), std::log(4.0), 1e-5);
}

TEST(Ops, SoftmaxCrossEntropyLabelValidation) {
  auto logits = Variable::constant(Tensor::zeros(Shape::mat(1, 3)));
  EXPECT_THROW(softmax_cross_entropy(logits, {3}), std::invalid_argument);
  EXPECT_THROW(softmax_cross_entropy(logits, {0, 1}), std::invalid_argument);
}

TEST(Ops, TvLossOfConstantIsZero) {
  auto x = Variable::constant(Tensor::full(Shape::nchw(1, 2, 4, 4), 3.0f));
  EXPECT_FLOAT_EQ(tv_loss(x).scalar_value(), 0.0f);
}

TEST(Ops, TvLossKnownValue) {
  // Single 1x2 map [0, 1]: one horizontal difference of 1; N*C = 1.
  Tensor x(Shape::nchw(1, 1, 1, 2), {0.0f, 1.0f});
  EXPECT_FLOAT_EQ(tv_loss(Variable::constant(x)).scalar_value(), 1.0f);
}

TEST(Ops, TvLossPenalizesCheckerboardOverSmooth) {
  Tensor smooth(Shape::nchw(1, 1, 4, 4));
  Tensor checker(Shape::nchw(1, 1, 4, 4));
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 4; ++x) {
      smooth[y * 4 + x] = static_cast<float>(x) / 4.0f;
      checker[y * 4 + x] = ((x + y) % 2) ? 1.0f : 0.0f;
    }
  EXPECT_GT(tv_loss(Variable::constant(checker)).scalar_value(),
            tv_loss(Variable::constant(smooth)).scalar_value());
}

TEST(Ops, TikhonovRowsZeroForConstantColumns) {
  // L_hf annihilates constants, so constant feature maps give zero penalty.
  auto x = Variable::constant(Tensor::full(Shape::nchw(1, 1, 8, 8), 2.0f));
  Tensor l_hf(Shape::mat(8, 8));
  // I - moving average (window 3, clamped) — reuse defense helper semantics
  // via direct construction here to keep the test self-contained.
  for (int r = 0; r < 8; ++r) {
    int lo = std::max(0, r - 1), hi = std::min(7, r + 1);
    if (r == 0) hi = 2;
    if (r == 7) lo = 5;
    const float inv = 1.0f / 3.0f;
    for (int c = lo; c <= hi; ++c) l_hf.at2(r, c) -= inv;
    l_hf.at2(r, r) += 1.0f;
  }
  EXPECT_NEAR(tikhonov_rows(x, l_hf).scalar_value(), 0.0f, 1e-8);
}

TEST(Ops, TikhonovElementwiseKnownValue) {
  // P = 2 everywhere, F = 3 everywhere, 1 map of 2x2: ||P.F||^2 = 4*36; /NK=1.
  auto x = Variable::constant(Tensor::full(Shape::nchw(1, 1, 2, 2), 3.0f));
  const Tensor p = Tensor::full(Shape::mat(2, 2), 2.0f);
  EXPECT_FLOAT_EQ(tikhonov_elementwise(x, p).scalar_value(), 144.0f);
}

TEST(Ops, LinfPerChannelSumsChannelMaxima) {
  Tensor w(Shape{2, 2, 2}, {0.1f, -0.9f, 0.2f, 0.3f, 0.0f, 0.5f, -0.6f, 0.4f});
  EXPECT_FLOAT_EQ(linf_per_channel(Variable::constant(w)).scalar_value(), 0.9f + 0.6f);
}

TEST(Ops, L2NormAndL1Norm) {
  auto x = Variable::constant(Tensor::from_vector({3.0f, -4.0f}));
  EXPECT_FLOAT_EQ(l2_norm(x).scalar_value(), 5.0f);
  EXPECT_FLOAT_EQ(l1_norm(x).scalar_value(), 7.0f);
}

TEST(Ops, AffineWarpIdentity) {
  util::Rng rng(9);
  auto x = Variable::constant(Tensor::randn(Shape::nchw(1, 2, 6, 6), rng));
  const auto y = affine_warp(x, Affine2D::identity());
  for (std::int64_t i = 0; i < x.value().numel(); ++i) {
    EXPECT_NEAR(y.value()[i], x.value()[i], 1e-6);
  }
}

TEST(Ops, AffineWarpTranslationShiftsPixels) {
  Tensor x = Tensor::zeros(Shape::nchw(1, 1, 5, 5));
  x.at4(0, 0, 2, 2) = 1.0f;
  Affine2D shift;  // output (x,y) samples input (x-1, y): move content right
  shift.tx = -1.0;
  const auto y = affine_warp(Variable::constant(x), shift);
  EXPECT_FLOAT_EQ(y.value().at4(0, 0, 2, 3), 1.0f);
  EXPECT_FLOAT_EQ(y.value().at4(0, 0, 2, 2), 0.0f);
}

TEST(Ops, AffineWarpRotationAboutCenterKeepsCenter) {
  Tensor x = Tensor::zeros(Shape::nchw(1, 1, 9, 9));
  x.at4(0, 0, 4, 4) = 1.0f;
  const auto t = Affine2D::rotation_scale_about_center(0.7, 1.0, 0.0, 0.0, 9, 9);
  const auto y = affine_warp(Variable::constant(x), t);
  EXPECT_NEAR(y.value().at4(0, 0, 4, 4), 1.0f, 1e-5);
}

TEST(Ops, DctLowpassOpMatchesSignal) {
  util::Rng rng(10);
  const auto x = Tensor::randn(Shape::nchw(1, 1, 8, 8), rng);
  const auto via_op = dct_lowpass(Variable::constant(x), 3).value();
  const auto via_signal = signal::dct_lowpass_nchw(x, 3);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_NEAR(via_op[i], via_signal[i], 1e-6);
}

TEST(Ops, NpsZeroOnPaletteColors) {
  // A perturbation exactly at a printable colour has zero NPS.
  Tensor palette(Shape::mat(2, 3), {0.0f, 0.0f, 0.0f, 1.0f, 1.0f, 1.0f});
  Tensor x = Tensor::zeros(Shape::nchw(1, 3, 2, 2));  // all-black == palette[0]
  EXPECT_NEAR(nps_loss(Variable::constant(x), palette).scalar_value(), 0.0f, 1e-7);
}

TEST(Ops, NpsPositiveOffPalette) {
  Tensor palette(Shape::mat(2, 3), {0.0f, 0.0f, 0.0f, 1.0f, 1.0f, 1.0f});
  Tensor x = Tensor::full(Shape::nchw(1, 3, 1, 1), 0.5f);
  EXPECT_GT(nps_loss(Variable::constant(x), palette).scalar_value(), 0.0f);
}

TEST(Ops, AffineWarpPerSampleTransformsWarpRowsIndependently) {
  // Row 0 shifts its content right, row 1 left: each row obeys its own pose.
  Tensor x = Tensor::zeros(Shape::nchw(2, 1, 5, 5));
  x.at4(0, 0, 2, 2) = 1.0f;
  x.at4(1, 0, 2, 2) = 1.0f;
  Affine2D right, left;  // inverse-warp convention: output samples input
  right.tx = -1.0;
  left.tx = 1.0;
  const auto y = affine_warp(Variable::constant(x), {right, left});
  EXPECT_FLOAT_EQ(y.value().at4(0, 0, 2, 3), 1.0f);
  EXPECT_FLOAT_EQ(y.value().at4(1, 0, 2, 1), 1.0f);
  EXPECT_FLOAT_EQ(y.value().at4(0, 0, 2, 1), 0.0f);
  EXPECT_FLOAT_EQ(y.value().at4(1, 0, 2, 3), 0.0f);
}

TEST(Ops, AffineWarpBatchOfEqualTransformsBitwiseEqualsSingle) {
  // The single-transform overload and n copies of the same transform must be
  // the same float program — exactly, in both the forward and the gradient.
  util::Rng rng(21);
  const Tensor x0 = Tensor::randn(Shape::nchw(3, 2, 7, 7), rng);
  const auto t = Affine2D::rotation_scale_about_center(0.35, 0.9, 1.2, -0.7, 7, 7);

  auto x_single = Variable::leaf(x0.clone());
  auto x_batch = Variable::leaf(x0.clone());
  const auto y_single = affine_warp(x_single, t);
  const auto y_batch = affine_warp(x_batch, std::vector<Affine2D>(3, t));
  for (std::int64_t i = 0; i < y_single.value().numel(); ++i) {
    ASSERT_EQ(y_single.value()[i], y_batch.value()[i]) << "forward diverged at " << i;
  }
  backward(sum_squares(y_single));
  backward(sum_squares(y_batch));
  for (std::int64_t i = 0; i < x0.numel(); ++i) {
    ASSERT_EQ(x_single.grad()[i], x_batch.grad()[i]) << "gradient diverged at " << i;
  }
}

TEST(Ops, AffineWarpOutOfBoundsTapsReadAndPropagateZero) {
  // A shift larger than the image: every output pixel samples outside, so the
  // forward is exactly zero and no gradient flows back into the input.
  util::Rng rng(22);
  auto x = Variable::leaf(Tensor::randn(Shape::nchw(1, 1, 4, 4), rng));
  Affine2D far_shift;
  far_shift.tx = 10.0;
  far_shift.ty = -10.0;
  const auto y = affine_warp(x, far_shift);
  for (std::int64_t i = 0; i < y.value().numel(); ++i) EXPECT_EQ(y.value()[i], 0.0f);
  backward(sum(y));
  for (std::int64_t i = 0; i < x.value().numel(); ++i) EXPECT_EQ(x.grad()[i], 0.0f);
}

TEST(Ops, AffineWarpTransformCountMismatchThrows) {
  auto x = Variable::constant(Tensor::zeros(Shape::nchw(2, 1, 4, 4)));
  EXPECT_THROW(affine_warp(x, std::vector<Affine2D>(3)), std::invalid_argument);
  EXPECT_THROW(affine_warp(x, std::vector<Affine2D>{}), std::invalid_argument);
}

TEST(Ops, RepeatBatchTilesPoseMajorAndSumsGrad) {
  // Layout contract the EOT pipeline relies on: copy j of the whole batch
  // occupies rows [j*n, (j+1)*n).
  Tensor x0(Shape::nchw(2, 1, 1, 2), {1.0f, 2.0f, 3.0f, 4.0f});
  auto x = Variable::leaf(x0.clone());
  auto tiled = repeat_batch(x, 3);
  EXPECT_EQ(tiled.shape(), Shape::nchw(6, 1, 1, 2));
  for (int j = 0; j < 3; ++j) {
    for (std::int64_t i = 0; i < 4; ++i) {
      EXPECT_FLOAT_EQ(tiled.value()[j * 4 + i], x0[i]) << "copy " << j << " element " << i;
    }
  }
  backward(sum(tiled));
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(x.grad()[i], 3.0f);

  EXPECT_THROW(repeat_batch(x, 0), std::invalid_argument);
  EXPECT_THROW(repeat_batch(Variable::constant(Tensor::zeros(Shape::vec(3))), 2),
               std::invalid_argument);
}

TEST(Ops, BroadcastBatchTilesAndSumsGrad) {
  auto x = Variable::leaf(Tensor::full(Shape::nchw(1, 1, 2, 2), 1.5f));
  auto tiled = broadcast_batch(x, 3);
  EXPECT_EQ(tiled.shape(), Shape::nchw(3, 1, 2, 2));
  for (std::int64_t i = 0; i < tiled.value().numel(); ++i) {
    EXPECT_FLOAT_EQ(tiled.value()[i], 1.5f);
  }
  auto loss = sum(tiled);
  backward(loss);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(x.grad()[i], 3.0f);
}

TEST(Ops, FlattenShapes) {
  auto x = Variable::constant(Tensor::zeros(Shape::nchw(2, 3, 4, 4)));
  EXPECT_EQ(flatten2d(x).shape(), Shape::mat(2, 48));
}

// The affine-warp row kernel and the depthwise tap loop are dispatched, but
// every target replicates the scalar op order (including how out-of-bounds
// taps are skipped), so the forwards must be bitwise identical across all
// available targets.
TEST(KernelDispatch, AffineWarpForwardBitwiseIdenticalAcrossTargets) {
  util::Rng rng(91);
  // 17-wide hits the 4-lane SIMD body plus a tail; the rotation pushes taps
  // out of bounds along every edge, and the far shift makes all taps OOB.
  auto x = Variable::constant(Tensor::randn(Shape::nchw(2, 2, 9, 17), rng));
  Affine2D rot = Affine2D::rotation_scale_about_center(0.35, 1.2, 0.7, -0.4, 9, 17);
  Affine2D far_shift;
  far_shift.tx = 40.0;
  std::vector<Affine2D> transforms{rot, far_shift};
  for (const Affine2D& t : transforms) {
    std::vector<float> scalar_out;
    for (const auto target : blurnet::testing::available_kernel_targets()) {
      blurnet::testing::ScopedKernelTarget scoped(target);
      const auto y = affine_warp(x, t);
      if (target == util::KernelTarget::kScalar) {
        scalar_out.assign(y.value().data(), y.value().data() + y.value().numel());
        continue;
      }
      for (std::int64_t i = 0; i < y.value().numel(); ++i) {
        ASSERT_EQ(y.value()[i], scalar_out[static_cast<std::size_t>(i)])
            << util::kernel_target_name(target) << " elem " << i;
      }
    }
  }
}

TEST(KernelDispatch, DepthwiseInferenceBitwiseIdenticalAcrossTargets) {
  util::Rng rng(92);
  auto x = Variable::constant(Tensor::randn(Shape::nchw(2, 3, 8, 21), rng));
  Tensor kernel(Shape{3, 3, 3});
  for (std::int64_t i = 0; i < kernel.numel(); ++i)
    kernel[i] = static_cast<float>(rng.normal());
  std::vector<float> scalar_out;
  for (const auto target : blurnet::testing::available_kernel_targets()) {
    blurnet::testing::ScopedKernelTarget scoped(target);
    // Graph mode (grad-requiring kernel) and no-grad mode run the same taps.
    const auto graph = depthwise_conv2d_same(x, Variable::leaf(kernel.clone()), Variable());
    NoGradGuard no_grad;
    const auto y = depthwise_conv2d_same(x, Variable::constant(kernel), Variable());
    if (target == util::KernelTarget::kScalar) {
      scalar_out.assign(y.value().data(), y.value().data() + y.value().numel());
    }
    for (std::int64_t i = 0; i < y.value().numel(); ++i) {
      ASSERT_EQ(y.value()[i], scalar_out[static_cast<std::size_t>(i)])
          << util::kernel_target_name(target) << " elem " << i;
      ASSERT_EQ(graph.value()[i], scalar_out[static_cast<std::size_t>(i)])
          << util::kernel_target_name(target) << " graph elem " << i;
    }
  }
}

TEST(KernelDispatch, DepthwiseInputGradientBitwiseIdenticalAcrossTargets) {
  util::Rng rng(93);
  const Tensor xv = Tensor::randn(Shape::nchw(2, 3, 8, 21), rng);
  const Tensor g = Tensor::randn(xv.shape(), rng);
  for (const Shape& kshape : {Shape{3, 3, 3}, Shape{3, 5, 5}, Shape{3, 4, 2}}) {
    const Tensor kernel = Tensor::randn(kshape, rng);
    Tensor scalar_dx;
    for (const auto target : blurnet::testing::available_kernel_targets()) {
      blurnet::testing::ScopedKernelTarget scoped(target);
      const Tensor dx = depthwise_input_grad(xv, Variable::constant(kernel), g);
      if (target == util::KernelTarget::kScalar) scalar_dx = dx;
      for (std::int64_t i = 0; i < dx.numel(); ++i) {
        ASSERT_EQ(dx[i], scalar_dx[i]) << util::kernel_target_name(target) << " kernel "
                                       << kshape.to_string() << " elem " << i;
      }
    }
  }
}

// The GEMM tile may differ across targets (hardware FMA), so the fused op is
// held to relu(conv2d) within each target, values and gradients.
TEST(KernelDispatch, Conv2dReluBitwiseEqualsReluOfConv2dOnEveryTarget) {
  util::Rng rng(94);
  const Tensor x = Tensor::randn(Shape::nchw(2, 3, 9, 11), rng);
  const Tensor w = Tensor::randn(Shape{10, 3, 5, 5}, rng, 0.0f, 0.3f);
  const Tensor b = Tensor::randn(Shape::vec(10), rng);
  const Tensor r = Tensor::randn(Shape::nchw(2, 10, 5, 6), rng);
  for (const auto target : blurnet::testing::available_kernel_targets()) {
    blurnet::testing::ScopedKernelTarget scoped(target);
    for (const ConvMode mode : {ConvMode::kGraph, ConvMode::kNoGrad, ConvMode::kFrozen}) {
      const ConvRun fused = run_conv(true, mode, x, w, &b, 2, 2, r);
      const ConvRun reference = run_conv(false, mode, x, w, &b, 2, 2, r);
      const char* name = util::kernel_target_name(target);
      EXPECT_TRUE(same_bits(fused.y, reference.y)) << name;
      EXPECT_TRUE(same_bits(fused.dx, reference.dx)) << name;
      EXPECT_TRUE(same_bits(fused.dw, reference.dw)) << name;
      EXPECT_TRUE(same_bits(fused.db, reference.db)) << name;
    }
  }
}

}  // namespace
}  // namespace blurnet::autograd
