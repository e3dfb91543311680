#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace blurnet::tensor {
namespace {

TEST(Shape, BasicProperties) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s[1], 3);
  EXPECT_EQ(s.to_string(), "[2, 3, 4]");
  const auto strides = s.strides();
  EXPECT_EQ(strides, (std::vector<std::int64_t>{12, 4, 1}));
}

TEST(Shape, ScalarHasNumelOne) {
  EXPECT_EQ(Shape::scalar().numel(), 1);
  EXPECT_EQ(Shape::scalar().rank(), 0);
}

TEST(Shape, NegativeDimThrows) {
  EXPECT_THROW(Shape({2, -1}), std::invalid_argument);
}

TEST(Tensor, ZeroInitialized) {
  const Tensor t(Shape{3, 3});
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, CopySharesStorageCloneDoesNot) {
  Tensor a = Tensor::full(Shape::vec(4), 2.0f);
  Tensor shared = a;
  Tensor deep = a.clone();
  a[0] = 7.0f;
  EXPECT_TRUE(shared.shares_storage_with(a));
  EXPECT_FALSE(deep.shares_storage_with(a));
  EXPECT_EQ(shared[0], 7.0f);
  EXPECT_EQ(deep[0], 2.0f);
}

TEST(Tensor, ReshapeSharesStorageAndChecksNumel) {
  Tensor a = Tensor::ones(Shape{2, 6});
  Tensor b = a.reshape(Shape{3, 4});
  EXPECT_TRUE(b.shares_storage_with(a));
  EXPECT_THROW(a.reshape(Shape{5, 5}), std::invalid_argument);
}

TEST(Tensor, ValueConstructorChecksSize) {
  EXPECT_THROW(Tensor(Shape{2, 2}, {1.0f, 2.0f}), std::invalid_argument);
}

TEST(Tensor, Reductions) {
  const Tensor t = Tensor::from_vector({1.0f, -3.0f, 2.0f});
  EXPECT_FLOAT_EQ(t.sum(), 0.0f);
  EXPECT_FLOAT_EQ(t.mean(), 0.0f);
  EXPECT_FLOAT_EQ(t.min(), -3.0f);
  EXPECT_FLOAT_EQ(t.max(), 2.0f);
  EXPECT_FLOAT_EQ(t.abs_max(), 3.0f);
  EXPECT_NEAR(t.l2_norm(), std::sqrt(14.0), 1e-6);
}

TEST(TensorOps, ElementwiseArithmetic) {
  const Tensor a = Tensor::from_vector({1, 2, 3});
  const Tensor b = Tensor::from_vector({4, 5, 6});
  EXPECT_FLOAT_EQ(add(a, b)[1], 7.0f);
  EXPECT_FLOAT_EQ(sub(a, b)[0], -3.0f);
  EXPECT_FLOAT_EQ(mul(a, b)[2], 18.0f);
  EXPECT_FLOAT_EQ(div(b, a)[1], 2.5f);
  EXPECT_FLOAT_EQ(add_scalar(a, 1.0f)[0], 2.0f);
  EXPECT_FLOAT_EQ(mul_scalar(a, -2.0f)[2], -6.0f);
}

TEST(TensorOps, ShapeMismatchThrows) {
  const Tensor a = Tensor::from_vector({1, 2});
  const Tensor b = Tensor::from_vector({1, 2, 3});
  EXPECT_THROW(add(a, b), std::invalid_argument);
}

TEST(TensorOps, UnaryFunctions) {
  const Tensor a = Tensor::from_vector({-2.0f, 0.0f, 3.0f});
  EXPECT_FLOAT_EQ(abs(a)[0], 2.0f);
  EXPECT_FLOAT_EQ(sign(a)[0], -1.0f);
  EXPECT_FLOAT_EQ(sign(a)[1], 0.0f);
  EXPECT_FLOAT_EQ(relu(a)[0], 0.0f);
  EXPECT_FLOAT_EQ(relu(a)[2], 3.0f);
  EXPECT_FLOAT_EQ(relu_mask(a)[2], 1.0f);
  EXPECT_FLOAT_EQ(square(a)[2], 9.0f);
  EXPECT_FLOAT_EQ(clamp(a, -1.0f, 1.0f)[0], -1.0f);
  EXPECT_FLOAT_EQ(maximum(a, Tensor::zeros(a.shape()))[0], 0.0f);
}

TEST(TensorOps, MatmulMatchesManual) {
  // [[1,2],[3,4]] x [[5,6],[7,8]] = [[19,22],[43,50]]
  const Tensor a(Shape::mat(2, 2), {1, 2, 3, 4});
  const Tensor b(Shape::mat(2, 2), {5, 6, 7, 8});
  const Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at2(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at2(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at2(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at2(1, 1), 50.0f);
}

TEST(TensorOps, MatmulVariantsAgree) {
  util::Rng rng(3);
  const Tensor a = Tensor::randn(Shape::mat(4, 6), rng);
  const Tensor b = Tensor::randn(Shape::mat(6, 5), rng);
  const Tensor reference = matmul(a, b);
  const Tensor via_tn = matmul_tn(transpose2d(a), b);
  const Tensor via_nt = matmul_nt(a, transpose2d(b));
  for (std::int64_t i = 0; i < reference.numel(); ++i) {
    EXPECT_NEAR(reference[i], via_tn[i], 1e-4);
    EXPECT_NEAR(reference[i], via_nt[i], 1e-4);
  }
}

// Zero-pads an NCHW tensor by `pad` on every side, then im2cols every image
// into a fresh [n, c*kernel*kernel, oh*ow] column tensor.
Tensor im2col_of(const Tensor& x, int kernel, int stride, int pad = 0) {
  const std::int64_t n = x.dim(0), c = x.dim(1);
  const std::int64_t hp = x.dim(2) + 2 * pad, wp = x.dim(3) + 2 * pad;
  const std::int64_t ohw = conv_out_size(hp, kernel, stride) * conv_out_size(wp, kernel, stride);
  Tensor padded(Shape::nchw(n, c, hp, wp));
  pad2d_into(x.data(), n * c, x.dim(2), x.dim(3), pad, pad, padded.data());
  Tensor cols(Shape{n, c * kernel * kernel, ohw});
  for (std::int64_t in = 0; in < n; ++in) {
    im2col_into(padded.data() + in * c * hp * wp, c, hp, wp, kernel, kernel, stride,
                cols.data() + in * c * kernel * kernel * ohw);
  }
  return cols;
}

// col2im_add of every image of `cols` into a fresh tensor shaped like x.
Tensor col2im_of(const Tensor& cols, const Shape& x_shape, int kernel, int stride, int pad = 0) {
  const std::int64_t n = x_shape[0], c = x_shape[1], h = x_shape[2], w = x_shape[3];
  Tensor dx(x_shape);
  for (std::int64_t in = 0; in < n; ++in) {
    col2im_add(cols.data() + in * cols.dim(1) * cols.dim(2), c, h, w, kernel, kernel, stride,
               pad, dx.data() + in * c * h * w);
  }
  return dx;
}

TEST(TensorOps, PadUnpadRoundTrip) {
  util::Rng rng(5);
  const Tensor x = Tensor::randn(Shape::nchw(2, 3, 4, 5), rng);
  Tensor padded(Shape::nchw(2, 3, 8, 7));
  // Stale scratch contents must not survive: pad2d_into writes every float.
  padded.fill(7.0f);
  pad2d_into(x.data(), 2 * 3, 4, 5, 2, 1, padded.data());
  EXPECT_FLOAT_EQ(padded.at4(0, 0, 0, 0), 0.0f);
  for (std::int64_t p = 0; p < 2 * 3; ++p) {
    for (std::int64_t y = 0; y < 8; ++y) {
      for (std::int64_t xx = 0; xx < 7; ++xx) {
        const bool inside = y >= 2 && y < 6 && xx >= 1 && xx < 6;
        const float expected = inside ? x[(p * 4 + y - 2) * 5 + xx - 1] : 0.0f;
        EXPECT_EQ(padded[(p * 8 + y) * 7 + xx], expected);
      }
    }
  }
}

TEST(TensorOps, Im2ColKnownValues) {
  // 1x1x3x3 image, 2x2 kernel, stride 1 -> 4 patches of 4 values.
  Tensor x(Shape::nchw(1, 1, 3, 3), {0, 1, 2, 3, 4, 5, 6, 7, 8});
  const Tensor cols = im2col_of(x, 2, 1);
  EXPECT_EQ(cols.shape(), (Shape{1, 4, 4}));
  // First row of cols = top-left value of each patch: 0,1,3,4.
  EXPECT_FLOAT_EQ(cols[0], 0.0f);
  EXPECT_FLOAT_EQ(cols[1], 1.0f);
  EXPECT_FLOAT_EQ(cols[2], 3.0f);
  EXPECT_FLOAT_EQ(cols[3], 4.0f);
}

TEST(TensorOps, Im2ColIntoEqualsNaiveGather) {
  // Each stride has its own row loop (1, 2 and 3 compile-time, larger ones
  // generic); all must copy the exact bits the naive strided gather reads.
  struct Case { std::int64_t c, h, w; int kh, kw, stride; };
  const Case cases[] = {
      {3, 36, 36, 5, 5, 1},   // conv1, padded
      {16, 36, 36, 5, 5, 2},  // conv2, padded
      {32, 18, 18, 3, 3, 2},  // conv3, padded
      {2, 7, 9, 3, 3, 1},     {2, 11, 13, 3, 5, 3}, {1, 8, 7, 2, 3, 3},
      {2, 9, 3, 3, 3, 2},     // ow = 1
      {1, 5, 5, 5, 5, 1},     // oh = ow = 1
      {2, 10, 17, 3, 3, 4},   // generic stride
  };
  util::Rng rng(11);
  for (const Case& k : cases) {
    const std::int64_t oh = conv_out_size(k.h, k.kh, k.stride);
    const std::int64_t ow = conv_out_size(k.w, k.kw, k.stride);
    Tensor x = Tensor::randn(Shape{k.c, k.h, k.w}, rng);
    x[0] = -0.0f;
    x[x.numel() / 2] = std::numeric_limits<float>::quiet_NaN();
    std::vector<float> cols(static_cast<std::size_t>(k.c * k.kh * k.kw * oh * ow), 7.0f);
    im2col_into(x.data(), k.c, k.h, k.w, k.kh, k.kw, k.stride, cols.data());
    std::size_t at = 0;
    for (std::int64_t ic = 0; ic < k.c; ++ic)
      for (int fy = 0; fy < k.kh; ++fy)
        for (int fx = 0; fx < k.kw; ++fx)
          for (std::int64_t oy = 0; oy < oh; ++oy)
            for (std::int64_t ox = 0; ox < ow; ++ox, ++at) {
              const float expected =
                  x[(ic * k.h + oy * k.stride + fy) * k.w + ox * k.stride + fx];
              ASSERT_EQ(std::memcmp(&expected, &cols[at], sizeof(float)), 0)
                  << "c" << k.c << " " << k.h << "x" << k.w << " k" << k.kh << "x" << k.kw
                  << " s" << k.stride << " at " << ic << "," << fy << "," << fx << "," << oy
                  << "," << ox;
            }
  }
}

TEST(TensorOps, Col2ImIsAdjointOfIm2Col) {
  // <im2col(pad(x)), y> == <x, col2im_add(y)> for random x, y — the adjoint
  // property the conv2d backward pass relies on.
  util::Rng rng(7);
  const Tensor x = Tensor::randn(Shape::nchw(2, 3, 6, 6), rng);
  for (const int pad : {0, 1}) {
    const Tensor cols = im2col_of(x, 3, 2, pad);
    const Tensor y = Tensor::randn(cols.shape(), rng);
    const Tensor x_back = col2im_of(y, x.shape(), 3, 2, pad);
    EXPECT_NEAR(dot(cols, y), dot(x, x_back), 1e-3) << "pad " << pad;
  }
}

TEST(TensorOps, Col2ImAddEqualsPaddedScatterThenCrop) {
  // col2im_add skips the padded border instead of scattering into it; every
  // image element must still receive its terms in the same order, so the
  // result is bitwise a scatter into a zeroed padded buffer followed by a crop.
  struct Case { std::int64_t c, h, w; int kernel, stride, pad; };
  const Case cases[] = {{2, 6, 6, 3, 2, 1},    {1, 1, 1, 5, 1, 2},   {3, 3, 5, 5, 2, 2},
                        {2, 7, 4, 3, 3, 0},    {1, 2, 2, 5, 2, 2},   {2, 9, 9, 5, 1, 2},
                        // the paper model's conv1, conv2 and conv3 input gradients
                        {3, 32, 32, 5, 1, 2}, {16, 32, 32, 5, 2, 2}, {32, 16, 16, 3, 2, 1}};
  util::Rng rng(13);
  for (const Case& k : cases) {
    const std::int64_t hp = k.h + 2 * k.pad, wp = k.w + 2 * k.pad;
    const std::int64_t oh = conv_out_size(hp, k.kernel, k.stride);
    const std::int64_t ow = conv_out_size(wp, k.kernel, k.stride);
    const Tensor cols = Tensor::randn(Shape{k.c * k.kernel * k.kernel, oh * ow}, rng);
    std::vector<float> scattered(static_cast<std::size_t>(k.c * hp * wp), 0.0f);
    for (std::int64_t ic = 0; ic < k.c; ++ic)
      for (int fy = 0; fy < k.kernel; ++fy)
        for (int fx = 0; fx < k.kernel; ++fx)
          for (std::int64_t oy = 0; oy < oh; ++oy)
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              scattered[static_cast<std::size_t>(
                  (ic * hp + oy * k.stride + fy) * wp + ox * k.stride + fx)] +=
                  cols[(((ic * k.kernel + fy) * k.kernel + fx) * oh + oy) * ow + ox];
            }
    std::vector<float> dx(static_cast<std::size_t>(k.c * k.h * k.w), 0.0f);
    col2im_add(cols.data(), k.c, k.h, k.w, k.kernel, k.kernel, k.stride, k.pad, dx.data());
    for (std::int64_t ic = 0; ic < k.c; ++ic)
      for (std::int64_t y = 0; y < k.h; ++y)
        for (std::int64_t xx = 0; xx < k.w; ++xx) {
          const float expected = scattered[static_cast<std::size_t>(
              (ic * hp + y + k.pad) * wp + xx + k.pad)];
          const float got = dx[static_cast<std::size_t>((ic * k.h + y) * k.w + xx)];
          EXPECT_EQ(std::memcmp(&expected, &got, sizeof(float)), 0)
              << "c" << k.c << " " << k.h << "x" << k.w << " k" << k.kernel << " s"
              << k.stride << " p" << k.pad << " at " << ic << "," << y << "," << xx;
        }
  }
}

TEST(TensorOps, SoftmaxRowsSumToOne) {
  util::Rng rng(9);
  const Tensor logits = Tensor::randn(Shape::mat(4, 7), rng, 0.0f, 3.0f);
  const Tensor probs = softmax_rows(logits);
  for (std::int64_t i = 0; i < 4; ++i) {
    double row_sum = 0;
    for (std::int64_t j = 0; j < 7; ++j) {
      row_sum += probs.at2(i, j);
      EXPECT_GT(probs.at2(i, j), 0.0f);
    }
    EXPECT_NEAR(row_sum, 1.0, 1e-5);
  }
}

TEST(TensorOps, LogSoftmaxMatchesLogOfSoftmax) {
  util::Rng rng(11);
  const Tensor logits = Tensor::randn(Shape::mat(3, 5), rng, 0.0f, 2.0f);
  const Tensor log_probs = log_softmax_rows(logits);
  const Tensor probs = softmax_rows(logits);
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    EXPECT_NEAR(log_probs[i], std::log(probs[i]), 1e-4);
  }
}

TEST(TensorOps, ArgmaxRows) {
  const Tensor logits(Shape::mat(2, 3), {0.1f, 0.9f, 0.3f, 2.0f, -1.0f, 0.0f});
  const auto preds = argmax_rows(logits);
  EXPECT_EQ(preds, (std::vector<int>{1, 0}));
}

TEST(TensorOps, ReduceNhwComputesPerChannelSums) {
  Tensor x(Shape::nchw(2, 2, 1, 2), {1, 2, 3, 4, 5, 6, 7, 8});
  const Tensor sums = reduce_nhw(x);
  EXPECT_FLOAT_EQ(sums[0], 1 + 2 + 5 + 6);
  EXPECT_FLOAT_EQ(sums[1], 3 + 4 + 7 + 8);
}

TEST(TensorOps, L2Dissimilarity) {
  const Tensor natural = Tensor::from_vector({3.0f, 4.0f});  // norm 5
  const Tensor adv = Tensor::from_vector({3.0f, 5.0f});      // diff norm 1
  EXPECT_NEAR(l2_dissimilarity(adv, natural), 0.2, 1e-6);
  EXPECT_NEAR(l2_dissimilarity(natural, natural), 0.0, 1e-9);
}

TEST(TensorOps, ConvOutSize) {
  EXPECT_EQ(conv_out_size(32, 5, 1), 28);
  EXPECT_EQ(conv_out_size(32, 5, 2), 14);
  EXPECT_EQ(conv_out_size(8, 3, 2), 3);
}

// Property sweep: im2col/col2im adjointness across kernel/stride/pad combos.
class Im2ColAdjoint : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(Im2ColAdjoint, HoldsForAllConfigs) {
  const auto [kernel, stride, pad] = GetParam();
  util::Rng rng(100 + kernel * 10 + stride + 1000 * pad);
  const Tensor x = Tensor::randn(Shape::nchw(1, 2, 9, 9), rng);
  const Tensor cols = im2col_of(x, kernel, stride, pad);
  const Tensor y = Tensor::randn(cols.shape(), rng);
  const Tensor x_back = col2im_of(y, x.shape(), kernel, stride, pad);
  EXPECT_NEAR(dot(cols, y), dot(x, x_back), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(KernelsAndStrides, Im2ColAdjoint,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5),
                                            ::testing::Values(1, 2, 3),
                                            ::testing::Values(0, 2)));

}  // namespace
}  // namespace blurnet::tensor
