// AArch64 NEON (ASIMD) kernels. Compiled only on aarch64 builds (CMake
// sets BLURNET_HAVE_NEON_KERNELS there); one of the two files allowed to
// use raw intrinsics (tools/lint.py `simd-confinement`).
//
// Numerics mirror the AVX2 TU: the GEMM microtile and row kernel use fused
// multiply-add (vfmaq, one rounding per term — the per-target GEMM
// contract, bitwise-modelled by linalg::sgemm_reference_fused); the tap
// and median kernels reproduce the scalar op order exactly and are
// bit-equal to the scalar target. Warp and DCT have no NEON
// specialization — dispatch falls back to scalar there.
#include "src/kernels/simd_kernels.h"

#if defined(BLURNET_HAVE_NEON_KERNELS)

#include <arm_neon.h>

#include <cmath>
#include <cstdint>

namespace blurnet::kernels::detail {

// ---- GEMM 4x8 microtile (two 4x4 quads) -------------------------------------

void gemm_microtile_neon(std::int64_t kc, const float* ap, const float* b,
                         std::int64_t ldb, float* acc) {
  float32x4_t c00 = vdupq_n_f32(0.0f), c01 = vdupq_n_f32(0.0f);
  float32x4_t c10 = vdupq_n_f32(0.0f), c11 = vdupq_n_f32(0.0f);
  float32x4_t c20 = vdupq_n_f32(0.0f), c21 = vdupq_n_f32(0.0f);
  float32x4_t c30 = vdupq_n_f32(0.0f), c31 = vdupq_n_f32(0.0f);
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float32x4_t av = vld1q_f32(ap + kk * 4);
    const float32x4_t b0 = vld1q_f32(b + kk * ldb);
    const float32x4_t b1 = vld1q_f32(b + kk * ldb + 4);
    c00 = vfmaq_laneq_f32(c00, b0, av, 0);
    c01 = vfmaq_laneq_f32(c01, b1, av, 0);
    c10 = vfmaq_laneq_f32(c10, b0, av, 1);
    c11 = vfmaq_laneq_f32(c11, b1, av, 1);
    c20 = vfmaq_laneq_f32(c20, b0, av, 2);
    c21 = vfmaq_laneq_f32(c21, b1, av, 2);
    c30 = vfmaq_laneq_f32(c30, b0, av, 3);
    c31 = vfmaq_laneq_f32(c31, b1, av, 3);
  }
  vst1q_f32(acc + 0, c00);
  vst1q_f32(acc + 4, c01);
  vst1q_f32(acc + 8, c10);
  vst1q_f32(acc + 12, c11);
  vst1q_f32(acc + 16, c20);
  vst1q_f32(acc + 20, c21);
  vst1q_f32(acc + 24, c30);
  vst1q_f32(acc + 28, c31);
}

// ---- GEMM row kernel ---------------------------------------------------------

void gemm_row_neon(std::int64_t kc, const float* a, const float* b,
                   std::int64_t ldb, std::int64_t n, float* acc) {
  // One independent fused chain per 4 columns; the n % 4 tail columns fold
  // with std::fma, the same single rounding per term as vfmaq.
  const std::int64_t vecs = n / 4;
  float32x4_t c[kGemmRowNr / 4];
  for (std::int64_t v = 0; v < vecs; ++v) c[v] = vdupq_n_f32(0.0f);
  float tail[4] = {0.0f, 0.0f, 0.0f, 0.0f};
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float av = a[kk];
    const float* brow = b + kk * ldb;
    for (std::int64_t v = 0; v < vecs; ++v) {
      c[v] = vfmaq_n_f32(c[v], vld1q_f32(brow + 4 * v), av);
    }
    for (std::int64_t j = 4 * vecs; j < n; ++j) {
      tail[j - 4 * vecs] = std::fma(av, brow[j], tail[j - 4 * vecs]);
    }
  }
  for (std::int64_t v = 0; v < vecs; ++v) vst1q_f32(acc + 4 * v, c[v]);
  for (std::int64_t j = 4 * vecs; j < n; ++j) acc[j] = tail[j - 4 * vecs];
}

// ---- convolution tap planes -------------------------------------------------

namespace {

void tap_row_neon(const float* src, std::int64_t stride, const float* ker,
                  int kh, int kw, float* dst, std::int64_t count) {
  std::int64_t i = 0;
  // Two output pixels per iteration: float64x2 lanes are independent
  // double accumulators walking the taps in the scalar (fy, fx) order
  // with separate mul and add (no fused contraction).
  for (; i + 2 <= count; i += 2) {
    float64x2_t acc = vdupq_n_f64(0.0);
    for (int fy = 0; fy < kh; ++fy) {
      const float* row = src + fy * stride + i;
      for (int fx = 0; fx < kw; ++fx) {
        const float64x2_t tap = vdupq_n_f64(static_cast<double>(ker[fy * kw + fx]));
        const float64x2_t v = vcvt_f64_f32(vld1_f32(row + fx));
        acc = vaddq_f64(acc, vmulq_f64(tap, v));
      }
    }
    const float32x2_t out = vcvt_f32_f64(acc);
    vst1_f32(dst + i, out);
  }
  for (; i < count; ++i) {
    double acc = 0.0;
    for (int fy = 0; fy < kh; ++fy) {
      const float* row = src + fy * stride + i;
      for (int fx = 0; fx < kw; ++fx) {
        acc += static_cast<double>(ker[fy * kw + fx]) * row[fx];
      }
    }
    dst[i] = static_cast<float>(acc);
  }
}

}  // namespace

// The plane is the row fold run once per output row; `wide` is unused.
void tap_plane_neon(const float* src, std::int64_t src_stride,
                    const float* ker, int kh, int kw, float* dst,
                    std::int64_t dst_stride, std::int64_t rows,
                    std::int64_t count, double* /*wide*/) {
  for (std::int64_t r = 0; r < rows; ++r) {
    tap_row_neon(src + r * src_stride, src_stride, ker, kh, kw,
                 dst + r * dst_stride, count);
  }
}

// ---- 3x3 median rows --------------------------------------------------------

namespace {

inline void sort2(float32x4_t& a, float32x4_t& b) {
  const float32x4_t lo = vminq_f32(a, b);
  b = vmaxq_f32(a, b);
  a = lo;
}

inline void sort2s(float& a, float& b) {
  const float lo = a < b ? a : b;
  b = a < b ? b : a;
  a = lo;
}

// Paeth's 19-exchange median-of-9 network (same as the AVX2 TU).
template <typename V, void (*Op)(V&, V&)>
inline V median9(V p0, V p1, V p2, V p3, V p4, V p5, V p6, V p7, V p8) {
  Op(p1, p2); Op(p4, p5); Op(p7, p8);
  Op(p0, p1); Op(p3, p4); Op(p6, p7);
  Op(p1, p2); Op(p4, p5); Op(p7, p8);
  Op(p0, p3); Op(p5, p8); Op(p4, p7);
  Op(p3, p6); Op(p1, p4); Op(p2, p5);
  Op(p4, p7); Op(p4, p2); Op(p6, p4);
  Op(p4, p2);
  return p4;
}

}  // namespace

void median3_row_neon(const float* r0, const float* r1, const float* r2,
                      float* dst, std::int64_t count) {
  std::int64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const float32x4_t m = median9<float32x4_t, sort2>(
        vld1q_f32(r0 + i), vld1q_f32(r0 + i + 1), vld1q_f32(r0 + i + 2),
        vld1q_f32(r1 + i), vld1q_f32(r1 + i + 1), vld1q_f32(r1 + i + 2),
        vld1q_f32(r2 + i), vld1q_f32(r2 + i + 1), vld1q_f32(r2 + i + 2));
    vst1q_f32(dst + i, m);
  }
  for (; i < count; ++i) {
    dst[i] = median9<float, sort2s>(r0[i], r0[i + 1], r0[i + 2], r1[i],
                                    r1[i + 1], r1[i + 2], r2[i], r2[i + 1],
                                    r2[i + 2]);
  }
}

}  // namespace blurnet::kernels::detail

#endif  // BLURNET_HAVE_NEON_KERNELS
