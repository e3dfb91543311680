#include "src/tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/linalg/gemm.h"

namespace blurnet::tensor {

namespace {

void require_same_numel(const Tensor& a, const Tensor& b, const char* op) {
  if (a.numel() != b.numel()) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                a.shape().to_string() + " vs " + b.shape().to_string());
  }
}

Tensor binary(const Tensor& a, const Tensor& b, const char* op,
              float (*fn)(float, float)) {
  require_same_numel(a, b, op);
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) po[i] = fn(pa[i], pb[i]);
  return out;
}

Tensor unary(const Tensor& a, float (*fn)(float)) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) po[i] = fn(pa[i]);
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary(a, b, "add", [](float x, float y) { return x + y; });
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return binary(a, b, "sub", [](float x, float y) { return x - y; });
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return binary(a, b, "mul", [](float x, float y) { return x * y; });
}
Tensor div(const Tensor& a, const Tensor& b) {
  return binary(a, b, "div", [](float x, float y) { return x / y; });
}

Tensor add_scalar(const Tensor& a, float s) {
  Tensor out = a.clone();
  float* p = out.data();
  for (std::int64_t i = 0; i < out.numel(); ++i) p[i] += s;
  return out;
}

Tensor mul_scalar(const Tensor& a, float s) {
  Tensor out = a.clone();
  out.scale_(s);
  return out;
}

Tensor neg(const Tensor& a) { return mul_scalar(a, -1.0f); }
Tensor abs(const Tensor& a) { return unary(a, [](float x) { return std::fabs(x); }); }
Tensor sign(const Tensor& a) {
  return unary(a, [](float x) { return x > 0 ? 1.0f : (x < 0 ? -1.0f : 0.0f); });
}
Tensor square(const Tensor& a) { return unary(a, [](float x) { return x * x; }); }
Tensor sqrt(const Tensor& a) { return unary(a, [](float x) { return std::sqrt(x); }); }
Tensor exp(const Tensor& a) { return unary(a, [](float x) { return std::exp(x); }); }
Tensor log(const Tensor& a) { return unary(a, [](float x) { return std::log(x); }); }
Tensor relu(const Tensor& a) { return unary(a, [](float x) { return x > 0 ? x : 0.0f; }); }
Tensor relu_mask(const Tensor& a) {
  return unary(a, [](float x) { return x > 0 ? 1.0f : 0.0f; });
}

Tensor clamp(const Tensor& a, float lo, float hi) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) po[i] = std::clamp(pa[i], lo, hi);
  return out;
}

Tensor maximum(const Tensor& a, const Tensor& b) {
  return binary(a, b, "maximum", [](float x, float y) { return x > y ? x : y; });
}
Tensor minimum(const Tensor& a, const Tensor& b) {
  return binary(a, b, "minimum", [](float x, float y) { return x < y ? x : y; });
}

Tensor apply(const Tensor& a, const std::function<float(float)>& fn) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) po[i] = fn(pa[i]);
  return out;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(0)) {
    throw std::invalid_argument("matmul: incompatible shapes " + a.shape().to_string() +
                                " x " + b.shape().to_string());
  }
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor out(Shape::mat(m, n));
  linalg::sgemm_nn(m, n, k, a.data(), b.data(), out.data(), /*accumulate=*/false);
  return out;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(0) != b.dim(0)) {
    throw std::invalid_argument("matmul_tn: incompatible shapes");
  }
  const std::int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor out(Shape::mat(m, n));
  linalg::sgemm_tn(m, n, k, a.data(), b.data(), out.data(), /*accumulate=*/false);
  return out;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(1)) {
    throw std::invalid_argument("matmul_nt: incompatible shapes");
  }
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor out(Shape::mat(m, n));
  linalg::sgemm_nt(m, n, k, a.data(), b.data(), out.data(), /*accumulate=*/false);
  return out;
}

Tensor transpose2d(const Tensor& a) {
  if (a.rank() != 2) throw std::invalid_argument("transpose2d: rank must be 2");
  const std::int64_t r = a.dim(0), c = a.dim(1);
  Tensor out(Shape::mat(c, r));
  for (std::int64_t i = 0; i < r; ++i)
    for (std::int64_t j = 0; j < c; ++j) out.at2(j, i) = a.at2(i, j);
  return out;
}

void pad2d_into(const float* x, std::int64_t planes, std::int64_t h, std::int64_t w,
                int pad_h, int pad_w, float* out) {
  const std::int64_t hp = h + 2 * pad_h, wp = w + 2 * pad_w;
  for (std::int64_t p = 0; p < planes; ++p) {
    float* plane = out + p * hp * wp;
    std::fill(plane, plane + pad_h * wp, 0.0f);
    for (std::int64_t ih = 0; ih < h; ++ih) {
      const float* src = x + (p * h + ih) * w;
      float* dst = plane + (ih + pad_h) * wp;
      std::fill(dst, dst + pad_w, 0.0f);
      std::copy(src, src + w, dst + pad_w);
      std::fill(dst + pad_w + w, dst + wp, 0.0f);
    }
    std::fill(plane + (pad_h + h) * wp, plane + hp * wp, 0.0f);
  }
}

std::int64_t conv_out_size(std::int64_t in, int kernel, int stride) {
  return (in - kernel) / stride + 1;
}

namespace {

/// The oh rows of one im2col tap: dst[oy*ow + ox] = src[oy*stride*w + ox*stride].
/// A compile-time stride turns each row into one vector loop: a plain copy
/// at stride 1, a shuffle deinterleave at stride 2 and 3 (with a runtime
/// stride the compiler emits one scalar move per float).
template <int kStride>
void im2col_rows(const float* src, std::int64_t w, std::int64_t oh, std::int64_t ow,
                 float* dst) {
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    const float* __restrict in = src + oy * kStride * w;
    float* __restrict out = dst + oy * ow;
    for (std::int64_t ox = 0; ox < ow; ++ox) out[ox] = in[ox * kStride];
  }
}

}  // namespace

void im2col_into(const float* x, std::int64_t c, std::int64_t h, std::int64_t w, int kh,
                 int kw, int stride, float* out) {
  const std::int64_t oh = conv_out_size(h, kh, stride);
  const std::int64_t ow = conv_out_size(w, kw, stride);
  if (oh <= 0 || ow <= 0) throw std::invalid_argument("im2col_into: kernel larger than input");
  for (std::int64_t ic = 0; ic < c; ++ic) {
    const float* src_plane = x + ic * h * w;
    for (int fy = 0; fy < kh; ++fy) {
      for (int fx = 0; fx < kw; ++fx) {
        float* dst = out + ((ic * kh + fy) * kw + fx) * oh * ow;
        const float* src = src_plane + fy * w + fx;
        switch (stride) {
          case 1: im2col_rows<1>(src, w, oh, ow, dst); break;
          case 2: im2col_rows<2>(src, w, oh, ow, dst); break;
          case 3: im2col_rows<3>(src, w, oh, ow, dst); break;
          default:
            for (std::int64_t oy = 0; oy < oh; ++oy) {
              const float* row = src + oy * stride * w;
              for (std::int64_t ox = 0; ox < ow; ++ox) dst[oy * ow + ox] = row[ox * stride];
            }
        }
      }
    }
  }
}

namespace {

/// [first, end) of the output positions o in [0, out) whose tap
/// o*stride + k - pad lands inside [0, in).
std::pair<std::int64_t, std::int64_t> inside_range(std::int64_t out, std::int64_t in, int k,
                                                   int stride, int pad) {
  const std::int64_t first = k >= pad ? 0 : (pad - k + stride - 1) / stride;
  const std::int64_t last = in - 1 + pad - k;  // largest in-image o*stride
  const std::int64_t end = last < 0 ? 0 : std::min(out, last / stride + 1);
  return {first, std::max(first, end)};
}

}  // namespace

void col2im_add(const float* cols, std::int64_t c, std::int64_t h, std::int64_t w, int kh,
                int kw, int stride, int pad, float* dx) {
  const std::int64_t oh = conv_out_size(h + 2 * pad, kh, stride);
  const std::int64_t ow = conv_out_size(w + 2 * pad, kw, stride);
  if (oh <= 0 || ow <= 0) throw std::invalid_argument("col2im_add: kernel larger than input");
  for (std::int64_t ic = 0; ic < c; ++ic) {
    float* dst_plane = dx + ic * h * w;
    for (int fy = 0; fy < kh; ++fy) {
      const auto [oy0, oy1] = inside_range(oh, h, fy, stride, pad);
      for (int fx = 0; fx < kw; ++fx) {
        const auto [ox0, ox1] = inside_range(ow, w, fx, stride, pad);
        const float* src = cols + ((ic * kh + fy) * kw + fx) * oh * ow;
        for (std::int64_t oy = oy0; oy < oy1; ++oy) {
          float* dst = dst_plane + (oy * stride + fy - pad) * w;
          if (stride == 1) {
            // One dx element per column: a contiguous vector add, and each
            // element still takes this (ic, fy, fx) term in its place.
            float* __restrict d = dst + fx - pad;
            const float* __restrict s = src + oy * ow;
            for (std::int64_t ox = ox0; ox < ox1; ++ox) d[ox] += s[ox];
          } else {
            for (std::int64_t ox = ox0; ox < ox1; ++ox) {
              dst[ox * stride + fx - pad] += src[oy * ow + ox];
            }
          }
        }
      }
    }
  }
}

Tensor reduce_nhw(const Tensor& x) {
  if (x.rank() != 4) throw std::invalid_argument("reduce_nhw: expected NCHW");
  const std::int64_t n = x.dim(0), c = x.dim(1), hw = x.dim(2) * x.dim(3);
  Tensor out(Shape::vec(c));
  for (std::int64_t in = 0; in < n; ++in) {
    for (std::int64_t ic = 0; ic < c; ++ic) {
      const float* src = x.data() + (in * c + ic) * hw;
      double acc = 0.0;
      for (std::int64_t i = 0; i < hw; ++i) acc += src[i];
      out[ic] += static_cast<float>(acc);
    }
  }
  return out;
}

Tensor softmax_rows(const Tensor& logits) {
  if (logits.rank() != 2) throw std::invalid_argument("softmax_rows: rank must be 2");
  const std::int64_t n = logits.dim(0), k = logits.dim(1);
  Tensor out(logits.shape());
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * k;
    float* dst = out.data() + i * k;
    float mx = row[0];
    for (std::int64_t j = 1; j < k; ++j) mx = std::max(mx, row[j]);
    double denom = 0.0;
    for (std::int64_t j = 0; j < k; ++j) {
      dst[j] = std::exp(row[j] - mx);
      denom += dst[j];
    }
    for (std::int64_t j = 0; j < k; ++j) dst[j] = static_cast<float>(dst[j] / denom);
  }
  return out;
}

Tensor log_softmax_rows(const Tensor& logits) {
  if (logits.rank() != 2) throw std::invalid_argument("log_softmax_rows: rank must be 2");
  const std::int64_t n = logits.dim(0), k = logits.dim(1);
  Tensor out(logits.shape());
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * k;
    float* dst = out.data() + i * k;
    float mx = row[0];
    for (std::int64_t j = 1; j < k; ++j) mx = std::max(mx, row[j]);
    double denom = 0.0;
    for (std::int64_t j = 0; j < k; ++j) denom += std::exp(row[j] - mx);
    const float log_denom = static_cast<float>(std::log(denom)) + mx;
    for (std::int64_t j = 0; j < k; ++j) dst[j] = row[j] - log_denom;
  }
  return out;
}

std::vector<int> argmax_rows(const Tensor& logits) {
  if (logits.rank() != 2) throw std::invalid_argument("argmax_rows: rank must be 2");
  const std::int64_t n = logits.dim(0), k = logits.dim(1);
  std::vector<int> out(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * k;
    int best = 0;
    for (std::int64_t j = 1; j < k; ++j) {
      if (row[j] > row[best]) best = static_cast<int>(j);
    }
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

double dot(const Tensor& a, const Tensor& b) {
  require_same_numel(a, b, "dot");
  double acc = 0.0;
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) acc += static_cast<double>(pa[i]) * pb[i];
  return acc;
}

double l2_dissimilarity(const Tensor& adv, const Tensor& natural) {
  require_same_numel(adv, natural, "l2_dissimilarity");
  double diff = 0.0, base = 0.0;
  const float* pa = adv.data();
  const float* pn = natural.data();
  for (std::int64_t i = 0; i < adv.numel(); ++i) {
    const double d = static_cast<double>(pa[i]) - pn[i];
    diff += d * d;
    base += static_cast<double>(pn[i]) * pn[i];
  }
  return base > 0 ? std::sqrt(diff) / std::sqrt(base) : std::sqrt(diff);
}

}  // namespace blurnet::tensor
