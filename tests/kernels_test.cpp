#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/kernels/dispatch.h"
#include "src/util/cpu_caps.h"
#include "src/util/rng.h"
#include "tests/test_helpers.h"

namespace blurnet::util {
namespace {

using blurnet::testing::ScopedKernelTarget;
using blurnet::testing::available_kernel_targets;

TEST(CpuCaps, ProbeIsConsistentAndCached) {
  const CpuCaps& caps = cpu_caps();
  // Probe-once: repeated calls hand back the same cached struct.
  EXPECT_EQ(&caps, &cpu_caps());
  // Availability must mirror the probe exactly; scalar is unconditional.
  EXPECT_TRUE(kernel_target_available(KernelTarget::kScalar));
  EXPECT_EQ(kernel_target_available(KernelTarget::kAvx2), caps.avx2_fma);
  EXPECT_EQ(kernel_target_available(KernelTarget::kNeon), caps.neon);
  // AVX2 and NEON binaries are different architectures; at most one is up.
  EXPECT_FALSE(caps.avx2_fma && caps.neon);
}

TEST(CpuCaps, ActiveTargetIsAvailableAndStable) {
  const KernelTarget active = active_kernel_target();
  EXPECT_TRUE(kernel_target_available(active));
  EXPECT_EQ(active, active_kernel_target());  // cached resolution
}

TEST(CpuCaps, NamesRoundTripThroughParse) {
  for (const auto target : {KernelTarget::kScalar, KernelTarget::kAvx2,
                            KernelTarget::kNeon}) {
    EXPECT_EQ(parse_kernel_target(kernel_target_name(target)), target);
  }
}

TEST(CpuCaps, ParseRejectsUnknownSpellingsDescriptively) {
  for (const char* bad : {"bogus", "", "AVX2", "sse2", "scalar "}) {
    try {
      parse_kernel_target(bad);
      FAIL() << "expected invalid_argument for '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      // The message must teach the accepted spellings.
      const std::string what = e.what();
      EXPECT_NE(what.find("scalar"), std::string::npos) << what;
      EXPECT_NE(what.find("avx2"), std::string::npos) << what;
      EXPECT_NE(what.find("neon"), std::string::npos) << what;
    }
  }
}

TEST(CpuCaps, SetKernelTargetRejectsUnavailableTargets) {
  for (const auto target : {KernelTarget::kAvx2, KernelTarget::kNeon}) {
    if (kernel_target_available(target)) continue;
    EXPECT_THROW(set_kernel_target(target), std::invalid_argument);
  }
  // An unavailable-target throw must not poison the cached resolution.
  EXPECT_TRUE(kernel_target_available(active_kernel_target()));
}

TEST(CpuCaps, SetAndResetKernelTargetRoundTrip) {
  const KernelTarget before = active_kernel_target();
  {
    ScopedKernelTarget scoped(KernelTarget::kScalar);
    EXPECT_EQ(active_kernel_target(), KernelTarget::kScalar);
  }
  EXPECT_EQ(active_kernel_target(), before);
}

TEST(KernelTable, GemmMicrokernelDescriptorsAreSane) {
  for (const auto target : available_kernel_targets()) {
    const kernels::GemmMicrokernel& mk = kernels::gemm_microkernel(target);
    EXPECT_NE(mk.fn, nullptr) << kernel_target_name(target);
    EXPECT_GE(mk.mr, 1) << kernel_target_name(target);
    EXPECT_LE(mk.mr, kernels::kGemmMaxMr) << kernel_target_name(target);
    if (target == KernelTarget::kScalar) {
      EXPECT_FALSE(mk.fused);
      EXPECT_EQ(mk.mr, 4);
    } else {
      EXPECT_TRUE(mk.fused);  // SIMD targets accumulate with hardware FMA
    }
  }
  // tap/warp dispatch can never come back null; callers rely on it.
  for (const auto target : available_kernel_targets()) {
    EXPECT_NE(kernels::tap_plane(target), nullptr);
    EXPECT_NE(kernels::warp_row(target), nullptr);
  }
}

// Same bits, or both NaN (which NaN propagates is not part of the tap
// contract). Bit equality also tells +0 from -0.
bool same_float(float a, float b) {
  return (std::isnan(a) && std::isnan(b)) || std::memcmp(&a, &b, sizeof(float)) == 0;
}

// Direct unit check of the tap-plane kernels: every target must reproduce a
// naive double-accumulator tap fold bitwise. The counts straddle the AVX2
// 16-pixel body and its 4-pixel and single-pixel tails; the plane has more
// than one row and a dst_stride wider than count; and poison variants put
// NaN and Inf into the taps and the input, and -0.0 into the input.
TEST(KernelTable, TapPlaneMatchesNaiveFoldBitwise) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float sentinel = -999.0f;
  enum class Poison { kNone, kNanTap, kInfTap, kNanInput, kInfInput, kNegZeroInput };
  struct Kernel { int kh, kw; };
  util::Rng rng(101);
  for (const Kernel k : {Kernel{1, 1}, Kernel{3, 5}, Kernel{5, 5}, Kernel{7, 7}, Kernel{4, 4}}) {
    for (const std::int64_t count : {1, 3, 4, 15, 16, 17, 31, 32, 33}) {
      for (const Poison poison : {Poison::kNone, Poison::kNanTap, Poison::kInfTap,
                                  Poison::kNanInput, Poison::kInfInput,
                                  Poison::kNegZeroInput}) {
        const std::int64_t rows = 1 + count % 3;  // 1, 2 and 3 rows (pairs + one)
        const std::int64_t src_stride = count + k.kw - 1 + 2;  // wider than read
        const std::int64_t dst_stride = count + 3;
        std::vector<float> src(static_cast<std::size_t>((rows + k.kh - 1) * src_stride));
        std::vector<float> ker(static_cast<std::size_t>(k.kh * k.kw));
        for (auto& v : src) v = static_cast<float>(rng.normal());
        for (auto& v : ker) v = static_cast<float>(rng.normal());
        switch (poison) {
          case Poison::kNone: break;
          case Poison::kNanTap: ker[ker.size() / 2] = nan; break;
          case Poison::kInfTap: ker.back() = -inf; break;
          case Poison::kNanInput: src[src.size() / 3] = nan; break;
          case Poison::kInfInput:
            src[src.size() / 2] = inf;
            src[src.size() / 2 + 1] = -inf;  // Inf - Inf where both fall in a window
            break;
          case Poison::kNegZeroInput:
            // Every other input -0.0 and the first row all -0.0: all-(-0)
            // windows must come out +0, as the naive fold from +0 gives.
            for (std::size_t i = 0; i < src.size(); i += 2) src[i] = -0.0f;
            for (std::int64_t i = 0; i < src_stride; ++i) src[static_cast<std::size_t>(i)] = -0.0f;
            if (k.kh == 1) std::fill(src.begin(), src.end(), -0.0f);
            break;
        }
        std::vector<float> expected(static_cast<std::size_t>(rows * dst_stride), sentinel);
        for (std::int64_t r = 0; r < rows; ++r) {
          for (std::int64_t i = 0; i < count; ++i) {
            double acc = 0.0;
            for (int fy = 0; fy < k.kh; ++fy) {
              for (int fx = 0; fx < k.kw; ++fx) {
                acc += static_cast<double>(ker[static_cast<std::size_t>(fy * k.kw + fx)]) *
                       static_cast<double>(
                           src[static_cast<std::size_t>((r + fy) * src_stride + i + fx)]);
              }
            }
            expected[static_cast<std::size_t>(r * dst_stride + i)] = static_cast<float>(acc);
          }
        }
        for (const auto target : available_kernel_targets()) {
          // Stale scratch contents must not leak into the result.
          std::vector<double> wide(
              static_cast<std::size_t>(kernels::tap_plane_scratch(rows, count, k.kh, k.kw)),
              std::numeric_limits<double>::quiet_NaN());
          std::vector<float> got(expected.size(), sentinel);
          kernels::tap_plane(target)(src.data(), src_stride, ker.data(), k.kh, k.kw,
                                     got.data(), dst_stride, rows, count, wide.data());
          for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_TRUE(same_float(got[i], expected[i]))
                << kernel_target_name(target) << " kernel " << k.kh << "x" << k.kw
                << " count " << count << " rows " << rows << " poison "
                << static_cast<int>(poison) << " elem " << i << ": " << got[i]
                << " vs " << expected[i];
          }
        }
      }
    }
  }
}

// Direct unit check of the median3 row kernels against nth_element: the
// min/max network must produce the exact 5th order statistic.
TEST(KernelTable, Median3RowMatchesNthElement) {
  util::Rng rng(103);
  for (const std::int64_t count : {std::int64_t{1}, std::int64_t{7},
                                   std::int64_t{8}, std::int64_t{21}}) {
    std::vector<float> r0, r1, r2;
    for (std::int64_t i = 0; i < count + 2; ++i) {
      r0.push_back(static_cast<float>(rng.normal()));
      r1.push_back(static_cast<float>(rng.normal()));
      r2.push_back(static_cast<float>(rng.normal()));
    }
    std::vector<float> expected(static_cast<std::size_t>(count));
    for (std::int64_t i = 0; i < count; ++i) {
      std::vector<float> window;
      for (int d = 0; d < 3; ++d) {
        window.push_back(r0[static_cast<std::size_t>(i + d)]);
        window.push_back(r1[static_cast<std::size_t>(i + d)]);
        window.push_back(r2[static_cast<std::size_t>(i + d)]);
      }
      std::nth_element(window.begin(), window.begin() + 4, window.end());
      expected[static_cast<std::size_t>(i)] = window[4];
    }
    for (const auto target : available_kernel_targets()) {
      const kernels::Median3RowFn fn = kernels::median3_row(target);
      if (fn == nullptr) continue;  // target keeps the nth_element path
      std::vector<float> got(static_cast<std::size_t>(count), -999.0f);
      fn(r0.data(), r1.data(), r2.data(), got.data(), count);
      for (std::int64_t i = 0; i < count; ++i) {
        ASSERT_EQ(got[static_cast<std::size_t>(i)],
                  expected[static_cast<std::size_t>(i)])
            << kernel_target_name(target) << " count " << count << " elem " << i;
      }
    }
  }
}

// Direct unit check of the dispatched 8x8 DCT pair: forward matches the
// dispatched-off scalar path bitwise is covered in defense_test; here we
// check the algebraic contract — inverse(forward(x)) ~= x.
TEST(KernelTable, Dct8x8RoundTripsWhereSpecialized) {
  util::Rng rng(107);
  double block[64];
  for (double& v : block) v = rng.normal();
  for (const auto target : available_kernel_targets()) {
    const kernels::Dct8x8Fn fwd = kernels::dct8x8(target, /*inverse=*/false);
    const kernels::Dct8x8Fn inv = kernels::dct8x8(target, /*inverse=*/true);
    if (fwd == nullptr || inv == nullptr) {
      // Specializations ship in pairs; a lone direction would leave the
      // caller mixing dispatched and generic halves.
      EXPECT_EQ(fwd, inv) << kernel_target_name(target);
      continue;
    }
    double coeff[64], rebuilt[64];
    fwd(block, coeff);
    inv(coeff, rebuilt);
    for (int i = 0; i < 64; ++i) {
      ASSERT_NEAR(rebuilt[i], block[i], 1e-12)
          << kernel_target_name(target) << " elem " << i;
    }
  }
}

}  // namespace
}  // namespace blurnet::util
