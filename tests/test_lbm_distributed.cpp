#include <gtest/gtest.h>

#include "lbm/distributed.h"

namespace s35::lbm {
namespace {

long mismatches(const Lattice<float>& a, const Lattice<float>& b) {
  long bad = 0;
  for (int i = 0; i < kQ; ++i)
    for (long z = 0; z < a.nz(); ++z)
      for (long y = 0; y < a.ny(); ++y)
        for (long x = 0; x < a.nx(); ++x) {
          const float va = a.at(i, x, y, z);
          const float vb = b.at(i, x, y, z);
          if (std::memcmp(&va, &vb, sizeof(float)) != 0) ++bad;
        }
  return bad;
}

// (ranks, dim_t, steps) x schedule family: the per-rank pass takes the
// caller's cfg.family.
class LbmDistributedP
    : public ::testing::TestWithParam<
          std::tuple<std::tuple<int, int, int>, core::ScheduleFamily>> {};

TEST_P(LbmDistributedP, MatchesSingleDomainBitExact) {
  const auto [shape, family] = GetParam();
  const auto [ranks, dim_t, steps] = shape;
  const long nx = 16, ny = 14, nz = 24;

  Geometry geom(nx, ny, nz);
  geom.set_box_walls();
  geom.set_lid();
  geom.set_solid_box(6, 9, 5, 8, 10, 13);  // obstacle crossing a rank cut
  geom.finalize();

  BgkParams<float> prm;
  prm.omega = 1.3f;
  prm.u_wall[0] = 0.06f;

  core::Engine35 engine(2);
  LatticePair<float> reference(nx, ny, nz);
  reference.src().init_equilibrium();
  SweepConfig cfg;
  cfg.dim_t = dim_t;
  cfg.dim_x = 12;
  cfg.family = family;
  run_lbm(Variant::kBlocked35D, geom, prm, reference, steps, cfg, engine);

  DistributedLbmDriver<float> driver(geom, ranks, dim_t);
  Lattice<float> initial(nx, ny, nz);
  initial.init_equilibrium();
  driver.scatter(initial);
  driver.run(prm, steps, cfg, engine);
  Lattice<float> gathered(nx, ny, nz);
  driver.gather(gathered);

  EXPECT_EQ(mismatches(reference.src(), gathered), 0)
      << core::to_string(family) << " ranks=" << ranks << " dim_t=" << dim_t
      << " steps=" << steps;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LbmDistributedP,
    ::testing::Combine(::testing::Values(std::tuple{1, 2, 4}, std::tuple{2, 2, 4},
                                         std::tuple{3, 2, 6}, std::tuple{2, 3, 7},
                                         std::tuple{4, 1, 3}),
                       ::testing::Values(core::ScheduleFamily::kPaper35D,
                                         core::ScheduleFamily::kDeep35D,
                                         core::ScheduleFamily::kDiamond)));

TEST(LbmDistributed, CommVolumeAccounting) {
  const long n = 20;
  Geometry geom(n, n, n);
  geom.set_box_walls();
  geom.finalize();
  BgkParams<float> prm;
  prm.omega = 1.0f;

  DistributedLbmDriver<float> driver(geom, 2, 2);
  Lattice<float> init(n, n, n);
  init.init_equilibrium();
  driver.scatter(init);
  core::Engine35 engine(1);
  SweepConfig cfg;
  cfg.dim_t = 2;
  driver.run(prm, 4, cfg, engine);

  const auto& s = driver.stats();
  EXPECT_EQ(s.passes, 2u);
  EXPECT_EQ(s.messages, 2u * 2u);  // one face, both directions, per pass
  // 2 directions x 19 arrays x halo(2) planes x n rows x n floats per pass.
  EXPECT_EQ(s.bytes, 2ull * 2 * 19 * 2 * n * n * sizeof(float));
}

}  // namespace
}  // namespace s35::lbm
