#include "src/signal/kernels.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "src/kernels/dispatch.h"
#include "src/linalg/operators.h"
#include "src/util/parallel.h"

namespace blurnet::signal {

tensor::Tensor make_blur_kernel(int size, KernelKind kind, double sigma) {
  if (size <= 0 || size % 2 == 0) {
    throw std::invalid_argument("make_blur_kernel: size must be odd and positive");
  }
  const auto taps = kind == KernelKind::kBox ? linalg::box_kernel_1d(size)
                                             : linalg::gaussian_kernel_1d(size, sigma);
  tensor::Tensor kernel(tensor::Shape::mat(size, size));
  for (int y = 0; y < size; ++y) {
    for (int x = 0; x < size; ++x) {
      kernel.at2(y, x) = static_cast<float>(taps[static_cast<std::size_t>(y)] *
                                            taps[static_cast<std::size_t>(x)]);
    }
  }
  return kernel;
}

namespace {

// One output pixel whose kernel window may hang off the plane. The window is
// renormalized by the in-bounds kernel mass so a blur of a constant plane
// stays constant at the borders instead of darkening (the zero-padding taps
// otherwise swallow part of a unit-mass kernel). Renormalization only applies
// when both masses are meaningfully nonzero: a ~zero-sum kernel (e.g. a
// Laplacian) must be left as computed — scaling by total/inbounds would
// annihilate its border response — and a ~zero in-bounds mass would explode.
void filter_border_pixel(const float* src, float* dst, std::int64_t h, std::int64_t w,
                         const float* kernel, int kh, int kw, double total_mass,
                         std::int64_t y, std::int64_t x) {
  const int pad_h = kh / 2;
  const int pad_w = kw / 2;
  double acc = 0.0;
  double inbounds_mass = 0.0;
  for (int fy = 0; fy < kh; ++fy) {
    const std::int64_t sy = y + fy - pad_h;
    if (sy < 0 || sy >= h) continue;
    for (int fx = 0; fx < kw; ++fx) {
      const std::int64_t sx = x + fx - pad_w;
      if (sx < 0 || sx >= w) continue;
      const double tap = kernel[fy * kw + fx];
      acc += tap * src[sy * w + sx];
      inbounds_mass += tap;
    }
  }
  if (std::fabs(total_mass) > 1e-12 && std::fabs(inbounds_mass) > 1e-12) {
    acc *= total_mass / inbounds_mass;
  }
  dst[y * w + x] = static_cast<float>(acc);
}

void filter_plane(const float* src, float* dst, std::int64_t h, std::int64_t w,
                  const float* kernel, int kh, int kw, kernels::TapPlaneFn taps,
                  std::vector<double>& wide) {
  const int pad_h = kh / 2;
  const int pad_w = kw / 2;
  double total_mass = 0.0;
  for (int i = 0; i < kh * kw; ++i) total_mass += kernel[i];

  // Interior pass: every tap is in bounds, no renormalization bookkeeping.
  // The tap loop is kernel-dispatched (scalar and SIMD targets share the
  // double accumulator and ascending (fy, fx) tap order, so the result is
  // bitwise identical across targets).
  const std::int64_t interior_h = h - 2 * pad_h;
  const std::int64_t interior_w = w - 2 * pad_w;
  if (interior_h > 0 && interior_w > 0) {
    const std::int64_t need = kernels::tap_plane_scratch(interior_h, interior_w, kh, kw);
    if (wide.size() < static_cast<std::size_t>(need)) wide.resize(static_cast<std::size_t>(need));
    taps(src, w, kernel, kh, kw, dst + pad_h * w + pad_w, w, interior_h, interior_w,
         wide.data());
  }

  // Border pass: the top/bottom bands plus the left/right edges of the
  // interior rows (covers everything when the kernel exceeds the plane).
  for (std::int64_t y = 0; y < h; ++y) {
    const bool full_row = y < pad_h || y >= h - pad_h;
    if (full_row) {
      for (std::int64_t x = 0; x < w; ++x) {
        filter_border_pixel(src, dst, h, w, kernel, kh, kw, total_mass, y, x);
      }
    } else {
      for (std::int64_t x = 0; x < std::min<std::int64_t>(pad_w, w); ++x) {
        filter_border_pixel(src, dst, h, w, kernel, kh, kw, total_mass, y, x);
      }
      for (std::int64_t x = std::max<std::int64_t>(w - pad_w, pad_w); x < w; ++x) {
        filter_border_pixel(src, dst, h, w, kernel, kh, kw, total_mass, y, x);
      }
    }
  }
}

}  // namespace

tensor::Tensor filter2d_depthwise(const tensor::Tensor& x, const tensor::Tensor& kernel) {
  if (x.rank() != 4) throw std::invalid_argument("filter2d_depthwise: expected NCHW");
  if (kernel.rank() != 2) throw std::invalid_argument("filter2d_depthwise: kernel must be rank-2");
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int kh = static_cast<int>(kernel.dim(0));
  const int kw = static_cast<int>(kernel.dim(1));
  tensor::Tensor out(x.shape());
  const kernels::TapPlaneFn taps = kernels::tap_plane(util::active_kernel_target());
  util::parallel_for(n * c, [&](std::int64_t p0, std::int64_t p1) {
    // Per-thread widened-row scratch for tap_plane; it only grows.
    thread_local std::vector<double> wide;
    for (std::int64_t p = p0; p < p1; ++p) {
      filter_plane(x.data() + p * h * w, out.data() + p * h * w, h, w, kernel.data(), kh, kw,
                   taps, wide);
    }
  }, /*min_chunk=*/1, /*cost=*/h * w * kh * kw);
  return out;
}

}  // namespace blurnet::signal
