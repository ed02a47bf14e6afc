#include <gtest/gtest.h>

#include "core/perf_model.h"

namespace s35::core {
namespace {

using machine::Precision;

// Figure 4(b): 7-pt on the Core i7 at 256^3.
TEST(PerfModel, Stencil7Figure4b) {
  // Naive and spatial-only are bandwidth bound at ~2600-2750 Mupd/s SP.
  const auto naive = predict_stencil7_cpu(CpuScheme::kNaive, Precision::kSingle);
  EXPECT_TRUE(naive.bandwidth_bound);
  EXPECT_NEAR(naive.mups, 2650, 200);
  const auto spatial = predict_stencil7_cpu(CpuScheme::kSpatialOnly, Precision::kSingle);
  EXPECT_NEAR(spatial.mups, naive.mups, 1.0);  // "did not obtain much benefit"

  // 3.5D converts it to compute bound at ~3900 ("1.5X speed up").
  const auto b35 = predict_stencil7_cpu(CpuScheme::kBlocked35D, Precision::kSingle);
  EXPECT_FALSE(b35.bandwidth_bound);
  EXPECT_NEAR(b35.mups, 3900, 200);
  EXPECT_NEAR(b35.mups / naive.mups, 1.5, 0.15);

  // DP is about half of SP ("DP performance is half of the SP performance").
  const auto b35dp = predict_stencil7_cpu(CpuScheme::kBlocked35D, Precision::kDouble);
  EXPECT_NEAR(b35dp.mups, 1995, 150);  // Section VII-D: "around 1,995"
  EXPECT_NEAR(b35dp.mups / b35.mups, 0.5, 0.03);
  const auto naive_dp = predict_stencil7_cpu(CpuScheme::kNaive, Precision::kDouble);
  EXPECT_NEAR(b35dp.mups / naive_dp.mups, 1.5, 0.15);  // DP speedup also 1.5X
}

// Figure 4(b) 64^3 columns: everything fits the LLC; blocking only adds
// ghost overhead ("slight slowdowns").
TEST(PerfModel, Stencil7SmallGrid) {
  const auto naive = predict_stencil7_cpu(CpuScheme::kNaive, Precision::kSingle, 64);
  const auto b35 = predict_stencil7_cpu(CpuScheme::kBlocked35D, Precision::kSingle, 64);
  EXPECT_FALSE(naive.bandwidth_bound);
  EXPECT_LT(b35.mups, naive.mups);
  EXPECT_GT(b35.mups, 0.95 * naive.mups);
  // The paper's "only 15% off the performance for small inputs": large-grid
  // 3.5D is within ~15% of the small-grid compute-bound rate.
  const auto big = predict_stencil7_cpu(CpuScheme::kBlocked35D, Precision::kSingle, 512);
  EXPECT_GT(big.mups, 0.85 * naive.mups);
}

// Figure 5(a): the LBM optimization ladder at 256^3 SP.
TEST(PerfModel, LbmFigure5aLadder) {
  const double scalar =
      predict_lbm_cpu(CpuScheme::kScalarNaive, Precision::kSingle).mups;
  const double simd = predict_lbm_cpu(CpuScheme::kNaive, Precision::kSingle).mups;
  const double spatial =
      predict_lbm_cpu(CpuScheme::kSpatialOnly, Precision::kSingle).mups;
  const double b4d = predict_lbm_cpu(CpuScheme::kBlocked4D, Precision::kSingle).mups;
  const double b35 = predict_lbm_cpu(CpuScheme::kBlocked35D, Precision::kSingle).mups;
  const double ilp = predict_lbm_cpu(CpuScheme::kBlocked35DIlp, Precision::kSingle).mups;

  EXPECT_NEAR(scalar, 52, 6);     // bar 1
  EXPECT_NEAR(simd, 87, 12);      // bar 2 (not 4X: now bandwidth bound)
  EXPECT_LT(simd / scalar, 2.1);
  EXPECT_NEAR(spatial, simd, 1.0);  // bar 3: no spatial reuse
  EXPECT_NEAR(b4d / simd, 1.08, 0.05);  // bar 4: "improves by 8%"
  EXPECT_NEAR(b35, 157, 18);      // bar 5
  EXPECT_NEAR(ilp, 171, 18);      // bar 6
  EXPECT_TRUE(predict_lbm_cpu(CpuScheme::kNaive, Precision::kSingle).bandwidth_bound);
  EXPECT_FALSE(
      predict_lbm_cpu(CpuScheme::kBlocked35D, Precision::kSingle).bandwidth_bound);
}

// Section VI-B expected speedups: "we expect speedups to be 2.2X for SP and
// 2.0X for DP", and 4D only 1.08X SP / 1.06X DP.
TEST(PerfModel, LbmExpectedSpeedups) {
  for (const auto& [p, s35_expect] : {std::tuple{Precision::kSingle, 2.2},
                                      std::tuple{Precision::kDouble, 2.0}}) {
    const double naive = predict_lbm_cpu(CpuScheme::kNaive, p).mups;
    const double b35 = predict_lbm_cpu(CpuScheme::kBlocked35DIlp, p).mups;
    const double b4d = predict_lbm_cpu(CpuScheme::kBlocked4D, p).mups;
    EXPECT_NEAR(b35 / naive, s35_expect, 0.35) << machine::to_string(p);
    // 4D is marginal either way: the paper projects 1.08X SP / 1.06X DP;
    // our model's κ^4D (2.0 SP / 2.8 DP from the same capacity budget)
    // brackets that — a small gain for SP and roughly break-even for DP.
    EXPECT_GT(b4d / naive, 0.8) << machine::to_string(p);
    EXPECT_LT(b4d / naive, 1.2) << machine::to_string(p);
    EXPECT_GT(b35 / b4d, 1.6) << machine::to_string(p);  // 3.5D >> 4D
  }
}

// Figure 4(a): temporal-only helps at 64^3 (buffer fits the 4 MB budget)
// and does nothing at 256^3.
TEST(PerfModel, LbmTemporalOnlyGridDependence) {
  const double naive64 = predict_lbm_cpu(CpuScheme::kNaive, Precision::kSingle, 64).mups;
  const double t64 =
      predict_lbm_cpu(CpuScheme::kTemporalOnly, Precision::kSingle, 64).mups;
  EXPECT_GT(t64, 1.5 * naive64);
  const double naive256 =
      predict_lbm_cpu(CpuScheme::kNaive, Precision::kSingle, 256).mups;
  const double t256 =
      predict_lbm_cpu(CpuScheme::kTemporalOnly, Precision::kSingle, 256).mups;
  EXPECT_NEAR(t256, naive256, 1.0);
}

// Section VII-B: LBM DP runs at about half the SP rate.
TEST(PerfModel, LbmDpHalfOfSp) {
  const double sp = predict_lbm_cpu(CpuScheme::kBlocked35DIlp, Precision::kSingle).mups;
  const double dp = predict_lbm_cpu(CpuScheme::kBlocked35DIlp, Precision::kDouble).mups;
  EXPECT_NEAR(dp / sp, 0.5, 0.06);
  // Section VII-D: "our 4-core number is around 80 MLUPS" for DP.
  EXPECT_NEAR(dp, 85, 15);
}

TEST(PerfModel, CoreScaling) {
  // Section VII-A: "parallel scalability of around 3.6X on 4-cores".
  EXPECT_NEAR(predicted_core_scaling(4, false, 0.87), 3.6, 0.05);
  EXPECT_DOUBLE_EQ(predicted_core_scaling(4, true), 1.0);
  EXPECT_DOUBLE_EQ(predicted_core_scaling(1, false), 1.0);
}

TEST(PerfModel, SchemeNames) {
  EXPECT_STREQ(to_string(CpuScheme::kBlocked35DIlp), "3.5d + ilp");
  EXPECT_STREQ(to_string(CpuScheme::kScalarNaive), "scalar naive");
}

}  // namespace
}  // namespace s35::core
