#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "stencil/sweeps.h"

namespace s35::stencil {
namespace {

// Independent scalar reference: plain triple loop, frozen boundary shell,
// same per-point expression as Stencil7::point / Stencil27::point.
template <typename S, typename T>
void reference_steps(const S& stencil, grid::Grid3<T>& grid, int steps) {
  constexpr long R = S::radius;
  grid::Grid3<T> tmp(grid.nx(), grid.ny(), grid.nz());
  for (int s = 0; s < steps; ++s) {
    tmp.copy_from(grid);  // boundary shell carries over
    for (long z = R; z < grid.nz() - R; ++z)
      for (long y = R; y < grid.ny() - R; ++y) {
        const auto acc = [&](int dz, int dy) -> const T* {
          return grid.row(y + dy, z + dz);
        };
        T* out = tmp.row(y, z);
        for (long x = R; x < grid.nx() - R; ++x) out[x] = stencil.point(acc, x);
      }
    grid.copy_from(tmp);
  }
}

struct Case {
  Variant variant;
  long nx, ny, nz;
  int steps;
  SweepConfig cfg;
  std::string name;
};

std::vector<Case> make_cases() {
  std::vector<Case> cases;
  const auto add = [&](Variant v, long nx, long ny, long nz, int steps, SweepConfig cfg,
                       std::string name) {
    cases.push_back({v, nx, ny, nz, steps, cfg, std::move(name)});
  };

  add(Variant::kNaive, 12, 9, 7, 3, {}, "naive_small");
  add(Variant::kNaive, 40, 40, 40, 2, {}, "naive_cube");
  add(Variant::kSpatial3D, 40, 40, 40, 2, {.dim_x = 8}, "spatial3d_8");
  add(Variant::kSpatial3D, 33, 21, 17, 3, {.dim_x = 16, .dim_y = 8, .dim_z = 4},
      "spatial3d_rect");
  add(Variant::kSpatial25D, 40, 40, 40, 2, {.dim_x = 16}, "spatial25d_16");
  add(Variant::kSpatial25D, 29, 31, 11, 3, {.dim_x = 12, .dim_y = 20}, "spatial25d_rect");
  add(Variant::kTemporalOnly, 24, 24, 24, 5, {.dim_t = 2}, "temporal_t2");
  add(Variant::kTemporalOnly, 20, 16, 30, 7, {.dim_t = 3}, "temporal_t3");
  add(Variant::kBlocked4D, 40, 40, 40, 4, {.dim_t = 2, .dim_x = 16}, "blocked4d_t2");
  add(Variant::kBlocked4D, 25, 19, 23, 6,
      {.dim_t = 3, .dim_x = 14, .dim_y = 18, .dim_z = 10}, "blocked4d_rect");
  add(Variant::kBlocked35D, 40, 40, 40, 4, {.dim_t = 2, .dim_x = 16}, "blocked35d_t2");
  add(Variant::kBlocked35D, 40, 40, 40, 6, {.dim_t = 3, .dim_x = 24}, "blocked35d_t3");
  add(Variant::kBlocked35D, 37, 23, 19, 5, {.dim_t = 2, .dim_x = 12, .dim_y = 18},
      "blocked35d_rect");
  add(Variant::kBlocked35D, 40, 40, 40, 4,
      {.dim_t = 2, .dim_x = 16, .serialized = true}, "blocked35d_serialized");
  // Partial final pass: steps not a multiple of dim_t.
  add(Variant::kBlocked35D, 32, 32, 32, 5, {.dim_t = 3, .dim_x = 20},
      "blocked35d_partial");
  // dim_t larger than what fits: single-tile temporal with big dim_t.
  add(Variant::kTemporalOnly, 16, 16, 40, 4, {.dim_t = 4}, "temporal_t4");
  return cases;
}

class Stencil7Exact : public ::testing::TestWithParam<std::tuple<Case, int>> {};

TEST_P(Stencil7Exact, MatchesReferenceBitExact) {
  const auto& [c, threads] = GetParam();
  const auto stencil = default_stencil7<float>();

  grid::Grid3<float> expected(c.nx, c.ny, c.nz);
  expected.fill_random(1234, -1.0f, 1.0f);
  grid::GridPair<float> pair(c.nx, c.ny, c.nz);
  pair.src().copy_from(expected);

  reference_steps(stencil, expected, c.steps);

  core::Engine35 engine(threads);
  run_sweep(c.variant, stencil, pair, c.steps, c.cfg, engine);

  EXPECT_EQ(grid::count_mismatches(expected, pair.src()), 0)
      << c.name << " threads=" << threads
      << " maxdiff=" << grid::max_abs_diff(expected, pair.src());
}

INSTANTIATE_TEST_SUITE_P(Sweep, Stencil7Exact,
                         ::testing::Combine(::testing::ValuesIn(make_cases()),
                                            ::testing::Values(1, 3, 4)),
                         [](const auto& info) {
                           return std::get<0>(info.param).name + "_t" +
                                  std::to_string(std::get<1>(info.param));
                         });

// Double precision spot checks across all variants.
class Stencil7Double : public ::testing::TestWithParam<Case> {};

TEST_P(Stencil7Double, MatchesReferenceBitExact) {
  const Case& c = GetParam();
  const auto stencil = default_stencil7<double>();
  grid::Grid3<double> expected(c.nx, c.ny, c.nz);
  expected.fill_random(77, -2.0, 2.0);
  grid::GridPair<double> pair(c.nx, c.ny, c.nz);
  pair.src().copy_from(expected);
  reference_steps(stencil, expected, c.steps);
  core::Engine35 engine(2);
  run_sweep(c.variant, stencil, pair, c.steps, c.cfg, engine);
  EXPECT_EQ(grid::count_mismatches(expected, pair.src()), 0) << c.name;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Stencil7Double, ::testing::ValuesIn(make_cases()),
                         [](const auto& info) { return info.param.name; });

// 27-point stencil across all variants (cube neighborhood exercises the
// diagonal rows the 7-point kernel never touches).
class Stencil27Exact : public ::testing::TestWithParam<Case> {};

TEST_P(Stencil27Exact, MatchesReferenceBitExact) {
  const Case& c = GetParam();
  const auto stencil = default_stencil27<float>();
  grid::Grid3<float> expected(c.nx, c.ny, c.nz);
  expected.fill_random(555, 0.0f, 1.0f);
  grid::GridPair<float> pair(c.nx, c.ny, c.nz);
  pair.src().copy_from(expected);
  reference_steps(stencil, expected, c.steps);
  core::Engine35 engine(3);
  run_sweep(c.variant, stencil, pair, c.steps, c.cfg, engine);
  EXPECT_EQ(grid::count_mismatches(expected, pair.src()), 0) << c.name;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Stencil27Exact, ::testing::ValuesIn(make_cases()),
                         [](const auto& info) { return info.param.name; });

// Boundary shell must be frozen by every variant.
TEST(StencilBoundary, ShellNeverChanges) {
  const long n = 20;
  const auto stencil = default_stencil7<float>();
  for (Variant v : {Variant::kNaive, Variant::kSpatial3D, Variant::kSpatial25D,
                    Variant::kTemporalOnly, Variant::kBlocked4D, Variant::kBlocked35D}) {
    grid::GridPair<float> pair(n, n, n);
    pair.src().fill_random(31, 1.0f, 2.0f);
    grid::Grid3<float> original(n, n, n);
    original.copy_from(pair.src());

    SweepConfig cfg;
    cfg.dim_t = 2;
    cfg.dim_x = 12;
    core::Engine35 engine(2);
    run_sweep(v, stencil, pair, 4, cfg, engine);

    for (long z = 0; z < n; ++z)
      for (long y = 0; y < n; ++y)
        for (long x = 0; x < n; ++x) {
          const bool shell = x == 0 || x == n - 1 || y == 0 || y == n - 1 || z == 0 ||
                             z == n - 1;
          if (shell) {
            ASSERT_EQ(pair.src().at(x, y, z), original.at(x, y, z))
                << to_string(v) << " at " << x << "," << y << "," << z;
          }
        }
  }
}

// Zero steps must be an exact no-op for every variant.
TEST(StencilSweep, ZeroStepsIsIdentity) {
  const auto stencil = default_stencil7<float>();
  for (Variant v : {Variant::kNaive, Variant::kBlocked35D}) {
    grid::GridPair<float> pair(10, 10, 10);
    pair.src().fill_random(8);
    grid::Grid3<float> original(10, 10, 10);
    original.copy_from(pair.src());
    SweepConfig cfg;
    cfg.dim_x = 8;
    core::Engine35 engine(1);
    run_sweep(v, stencil, pair, 0, cfg, engine);
    EXPECT_EQ(grid::count_mismatches(original, pair.src()), 0);
  }
}

TEST(StencilDeathTest, Blocked4DNeedsPositiveDimT) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  grid::GridPair<float> pair(12, 12, 12);
  SweepConfig cfg;
  cfg.dim_t = 0;
  cfg.dim_x = 8;
  core::Engine35 engine(2);
  const auto stencil = default_stencil7<float>();
  EXPECT_DEATH(run_sweep(Variant::kBlocked4D, stencil, pair, 2, cfg, engine),
               "dim_t >= 1");
}

}  // namespace
}  // namespace s35::stencil
