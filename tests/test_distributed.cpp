#include <gtest/gtest.h>

#include <algorithm>

#include "stencil/distributed.h"

namespace s35::stencil {
namespace {

// (ranks, dim_t, steps) x schedule family: the per-rank pass takes the
// caller's cfg.family, and the thick-halo argument holds for every family.
class DistributedP
    : public ::testing::TestWithParam<
          std::tuple<std::tuple<int, int, int>, core::ScheduleFamily>> {};

TEST_P(DistributedP, MatchesSingleDomainBitExact) {
  const auto [shape, family] = GetParam();
  const auto [ranks, dim_t, steps] = shape;
  const long nx = 20, ny = 18, nz = 36;
  const auto stencil = default_stencil7<float>();

  grid::GridPair<float> reference(nx, ny, nz);
  reference.src().fill_random(808, -1.0f, 1.0f);
  core::Engine35 engine(3);
  SweepConfig cfg;
  cfg.dim_t = dim_t;
  cfg.dim_x = 14;
  cfg.family = family;
  run_sweep(Variant::kBlocked35D, stencil, reference, steps, cfg, engine);

  DistributedStencilDriver<Stencil7<float>, float> driver(nx, ny, nz, ranks, dim_t);
  grid::Grid3<float> initial(nx, ny, nz);
  initial.fill_random(808, -1.0f, 1.0f);
  driver.scatter(initial);
  driver.run(stencil, steps, cfg, engine);
  grid::Grid3<float> gathered(nx, ny, nz);
  driver.gather(gathered);

  EXPECT_EQ(grid::count_mismatches(reference.src(), gathered), 0)
      << core::to_string(family) << " ranks=" << ranks << " dim_t=" << dim_t
      << " steps=" << steps;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistributedP,
    ::testing::Combine(::testing::Values(std::tuple{1, 2, 4}, std::tuple{2, 2, 4},
                                         std::tuple{3, 2, 6}, std::tuple{2, 3, 7},
                                         std::tuple{4, 1, 3}, std::tuple{4, 2, 5}),
                       ::testing::Values(core::ScheduleFamily::kPaper35D,
                                         core::ScheduleFamily::kDeep35D,
                                         core::ScheduleFamily::kDiamond)));

// The per-rank pass honors the caller's kernel options and dispatches the
// vector backend at run time: with FMA allowed, the 2-rank gather equals
// the single-domain 3.5D sweep with the same config (run_sweep with the
// dispatched backend, so every S35_ISA rung compares like with like), and
// on backends that fuse it differs from the FMA-off gather. One thread
// and whole-axis tiles keep every row on the same fast-path span, which
// FMA results depend on; rows span several vectors of the widest backend
// so the register-blocked fast path runs.
TEST(Distributed, PerRankPassHonorsKernelOptions) {
  const long nx = 40, ny = 40, nz = 36;
  const int ranks = 2, dim_t = 2, steps = 6;
  const auto stencil = default_stencil7<float>();
  core::Engine35 engine(1);
  grid::Grid3<float> initial(nx, ny, nz);
  initial.fill_random(909, -1.0f, 1.0f);
  const auto distributed = [&](const SweepConfig& cfg) {
    DistributedStencilDriver<Stencil7<float>, float> driver(nx, ny, nz, ranks, dim_t);
    driver.scatter(initial);
    driver.run(stencil, steps, cfg, engine);
    grid::Grid3<float> out(nx, ny, nz);
    driver.gather(out);
    return out;
  };

  SweepConfig cfg;
  cfg.dim_t = dim_t;
  cfg.dim_x = nx;
  cfg.kernel.allow_fma = true;
  grid::GridPair<float> reference(nx, ny, nz);
  reference.src().copy_from(initial);
  run_sweep_auto(Variant::kBlocked35D, stencil, reference, steps, cfg, engine);
  const grid::Grid3<float> fused = distributed(cfg);
  EXPECT_EQ(grid::count_mismatches(reference.src(), fused), 0);

  cfg.kernel.allow_fma = false;
  const grid::Grid3<float> plain = distributed(cfg);
  const simd::Isa isa = std::min(cfg.kernel.isa, simd::dispatch_isa());
  if (isa >= simd::Isa::kAvx2) {
    EXPECT_GT(grid::count_mismatches(fused, plain), 0);
  }
}

// Communication accounting: per-step byte volume is dim_t-independent (the
// thicker halo amortizes over dim_t steps) while the message count drops
// by dim_t — the latency-amortization benefit.
TEST(Distributed, CommunicationAmortization) {
  const long n = 32;
  const auto stencil = default_stencil7<double>();
  core::Engine35 engine(2);
  SweepConfig cfg;
  cfg.dim_x = 20;

  CommStats stats[2];
  int idx = 0;
  for (int dim_t : {1, 4}) {
    DistributedStencilDriver<Stencil7<double>, double> driver(n, n, n, 2, dim_t);
    grid::Grid3<double> g(n, n, n);
    g.fill_random(1);
    driver.scatter(g);
    cfg.dim_t = dim_t;
    driver.run(stencil, 8, cfg, engine);
    stats[idx++] = driver.stats();
  }
  EXPECT_EQ(stats[0].time_steps, 8u);
  EXPECT_EQ(stats[1].time_steps, 8u);
  // Same bytes per step...
  EXPECT_NEAR(stats[1].bytes_per_step(), stats[0].bytes_per_step(),
              1e-9 * stats[0].bytes_per_step());
  // ...but 4x fewer messages.
  EXPECT_DOUBLE_EQ(stats[0].messages_per_step() / stats[1].messages_per_step(), 4.0);
}

TEST(Distributed, RejectsTooShallowSubdomains) {
  // 4 ranks x 8 planes each, halo 9 planes: must refuse.
  using Driver = DistributedStencilDriver<Stencil7<float>, float>;
  EXPECT_DEATH(Driver(16, 16, 32, 4, 9), "shallower");
}

TEST(Distributed, ScatterGatherRoundTrip) {
  const long n = 16;
  DistributedStencilDriver<Stencil7<float>, float> driver(n, n, n, 3, 2);
  grid::Grid3<float> in(n, n, n), out(n, n, n);
  in.fill_random(55);
  driver.scatter(in);
  driver.gather(out);
  EXPECT_EQ(grid::count_mismatches(in, out), 0);
}

}  // namespace
}  // namespace s35::stencil
