#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "memsim/traffic.h"

namespace s35::memsim {
namespace {

// Paper-scale LLC but small grids so the replay is fast; grids are chosen
// large enough that a full grid does NOT fit in the cache (the interesting
// regime).
TraceConfig stencil_cfg(long n, int steps) {
  TraceConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = n;
  cfg.steps = steps;
  cfg.elem_bytes = 4;
  cfg.radius = 1;
  cfg.cache.size_bytes = 1u << 20;  // 1 MB "LLC" scaled to the small grid
  cfg.cache.ways = 16;
  return cfg;
}

// Naive Jacobi on a grid much bigger than cache moves ~(read + write-alloc
// + write-back) = 12 B per SP point per step.
TEST(TrafficStencil, NaiveIsStreamBound) {
  auto cfg = stencil_cfg(96, 2);  // 96^3 * 4 B * 2 grids = 7 MB >> 1 MB
  const auto rep = trace_stencil(Scheme::kNaive, cfg);
  EXPECT_NEAR(rep.bytes_per_update(), 12.0, 1.5);
}

// Streaming stores eliminate the write-allocate fetch: ~8 B per update.
TEST(TrafficStencil, StreamingStoresSaveWriteAllocate) {
  auto cfg = stencil_cfg(96, 2);
  cfg.streaming_stores = true;
  const auto rep = trace_stencil(Scheme::kNaive, cfg);
  EXPECT_NEAR(rep.bytes_per_update(), 8.0, 1.0);
  auto cfg2 = stencil_cfg(96, 2);
  const auto rep2 = trace_stencil(Scheme::kNaive, cfg2);
  EXPECT_LT(rep.bytes_per_update(), rep2.bytes_per_update());
}

// The headline claim: 3.5D traffic ~= naive / (dim_t / kappa).
TEST(TrafficStencil, Blocked35dCutsTrafficByDimT) {
  auto base = stencil_cfg(96, 4);
  base.streaming_stores = true;
  const double naive = trace_stencil(Scheme::kNaive, base).bytes_per_update();

  auto blocked = base;
  blocked.dim_t = 2;
  blocked.dim_x = blocked.dim_y = 64;
  const double b35 = trace_stencil(Scheme::kBlocked35D, blocked).bytes_per_update();

  const double reduction = naive / b35;
  // kappa(1,2,64,64) ~= 1.14 -> expect ~2/1.14 ~= 1.75x.
  EXPECT_GT(reduction, 1.5);
  EXPECT_LT(reduction, 2.1);

  auto blocked3 = base;
  blocked3.dim_t = 4;
  blocked3.dim_x = blocked3.dim_y = 64;
  const double b35t4 = trace_stencil(Scheme::kBlocked35D, blocked3).bytes_per_update();
  EXPECT_GT(naive / b35t4, 2.3);  // deeper temporal blocking cuts more
  EXPECT_LT(b35t4, b35);
}

// 2.5D spatial-only matches naive traffic on a cached machine (no temporal
// reuse to exploit; Section VII-A "spatial blocking in itself did not
// obtain much benefit").
TEST(TrafficStencil, Spatial25dAlone) {
  auto cfg = stencil_cfg(96, 2);
  cfg.streaming_stores = true;
  const double naive = trace_stencil(Scheme::kNaive, cfg).bytes_per_update();
  auto cfg2 = cfg;
  cfg2.dim_x = cfg2.dim_y = 64;
  const double sp = trace_stencil(Scheme::kSpatial25D, cfg2).bytes_per_update();
  EXPECT_NEAR(sp, naive, 0.3 * naive);
}

// Temporal-only blocking works when the whole XY slab set fits (small
// grid), fails to cut traffic when it does not (Figure 4(a) story).
TEST(TrafficStencil, TemporalOnlyNeedsFittingSlabs) {
  auto small = stencil_cfg(48, 4);  // 48^2 plane set fits the 1 MB cache
  small.streaming_stores = true;
  small.dim_t = 2;
  const double naive_small = trace_stencil(Scheme::kNaive, small).bytes_per_update();
  const double temp_small =
      trace_stencil(Scheme::kTemporalOnly, small).bytes_per_update();
  EXPECT_LT(temp_small, 0.75 * naive_small);

  // 224^2 XY planes: the (2R+2) x dim_t plane buffer alone exceeds the
  // 1 MB cache, so temporal reuse dies (the paper's large-grid failure).
  auto big = stencil_cfg(224, 2);
  big.streaming_stores = true;
  big.dim_t = 2;
  const double naive_big = trace_stencil(Scheme::kNaive, big).bytes_per_update();
  const double temp_big = trace_stencil(Scheme::kTemporalOnly, big).bytes_per_update();
  EXPECT_GT(temp_big, 0.9 * naive_big);
}

// 4D blocking pays ghost traffic in all three dimensions: more external
// bytes than 3.5D at the same dim_t and comparable buffer budget.
TEST(TrafficStencil, Blocked4dWorseThan35d) {
  auto cfg = stencil_cfg(96, 4);
  cfg.streaming_stores = true;
  cfg.dim_t = 2;
  cfg.dim_x = cfg.dim_y = 64;
  const double b35 = trace_stencil(Scheme::kBlocked35D, cfg).bytes_per_update();
  auto cfg4 = cfg;
  cfg4.dim_x = cfg4.dim_y = cfg4.dim_z = 16;  // similar buffer bytes
  const double b4 = trace_stencil(Scheme::kBlocked4D, cfg4).bytes_per_update();
  EXPECT_GT(b4, b35);
}

// ------------------------------------------------------------------- LBM --

TraceConfig lbm_cfg(long n, int steps) {
  TraceConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = n;
  cfg.steps = steps;
  cfg.elem_bytes = 4;
  cfg.radius = 1;
  cfg.cache.size_bytes = 1u << 20;
  cfg.cache.ways = 16;
  return cfg;
}

// Naive LBM streams ~19 reads + 19 write-allocs + 19 write-backs + flag
// ~= 229 B/cell SP (matches the paper's 228 B analysis).
TEST(TrafficLbm, NaiveMatchesPaperByteCount) {
  // nx = 64 keeps rows exact cache-line multiples; with nx = 40 the rows
  // span partial lines and the measured bytes rise above the analytic 229
  // (the effect of the paper's footnote 1).
  const auto rep = trace_lbm(Scheme::kNaive, lbm_cfg(64, 2));
  EXPECT_NEAR(rep.bytes_per_update(), 229.0, 12.0);
  const auto padded = trace_lbm(Scheme::kNaive, lbm_cfg(40, 2));
  EXPECT_GT(padded.bytes_per_update(), rep.bytes_per_update());
}

// 3.5D with dim_t = 3 cuts LBM traffic by ~ dim_t / kappa.
TEST(TrafficLbm, Blocked35dCutsTraffic) {
  auto cfg = lbm_cfg(48, 6);
  // The blocking buffer (19 arrays x 4 slots x 3 instances x 24^2) is
  // ~0.7 MB; the cache must hold it comfortably, as eq. 1 requires.
  cfg.cache.size_bytes = 2u << 20;
  const double naive = trace_lbm(Scheme::kNaive, cfg).bytes_per_update();
  auto blocked = cfg;
  blocked.dim_t = 3;
  blocked.dim_x = blocked.dim_y = 24;
  const double b35 = trace_lbm(Scheme::kBlocked35D, blocked).bytes_per_update();
  // kappa(1,3,24,24) = (1-6/24)^-2 = 1.78 -> reduction ~ 3/1.78 = 1.7.
  EXPECT_GT(naive / b35, 1.35);
  EXPECT_LT(naive / b35, 2.2);
}

// Temporal-only helps only when the whole working set fits (64^3 bars of
// Figure 4(a) at real scale; scaled down here).
TEST(TrafficLbm, TemporalOnlySmallVsLarge) {
  // Small case mirrors the paper's 64^3 regime: the lattice itself exceeds
  // the cache (no naive reuse) but the temporal plane buffer fits.
  auto small = lbm_cfg(32, 4);
  small.dim_t = 2;
  small.cache.size_bytes = 2u << 20;  // buffer 655 KB << 2 MB << lattice 5 MB
  const double naive_small = trace_lbm(Scheme::kNaive, small).bytes_per_update();
  const double temp_small = trace_lbm(Scheme::kTemporalOnly, small).bytes_per_update();
  EXPECT_LT(temp_small, 0.8 * naive_small);

  auto big = lbm_cfg(64, 4);
  big.dim_t = 2;
  const double naive_big = trace_lbm(Scheme::kNaive, big).bytes_per_update();
  const double temp_big = trace_lbm(Scheme::kTemporalOnly, big).bytes_per_update();
  EXPECT_GT(temp_big, 0.9 * naive_big);
}

TEST(TrafficLbm, TlbLargePagesReduceMisses) {
  auto cfg = lbm_cfg(32, 1);
  const double m4k = lbm_tlb_misses_per_update(cfg, {64, 4096});
  const double m2m = lbm_tlb_misses_per_update(cfg, {32, 2u << 20});
  EXPECT_LT(m2m, m4k * 0.25);
}

// Hierarchy-backed replay: external traffic matches the single-level
// replay with the same LLC, and inner levels show real reuse.
TEST(TrafficStencil, HierarchyMatchesSingleLevelExternally) {
  auto cfg = stencil_cfg(96, 2);
  cfg.streaming_stores = true;
  cfg.dim_t = 2;
  cfg.dim_x = cfg.dim_y = 64;
  const double single = trace_stencil(Scheme::kBlocked35D, cfg).bytes_per_update();

  HierarchyConfig h;
  h.levels.push_back({16u << 10, 8, 64});
  h.levels.push_back({64u << 10, 8, 64});
  h.levels.push_back({1u << 20, 16, 64});
  auto cfg2 = cfg;
  cfg2.hierarchy = &h;
  const auto rep = trace_stencil(Scheme::kBlocked35D, cfg2);
  ASSERT_EQ(rep.levels.size(), 3u);
  EXPECT_NEAR(rep.bytes_per_update(), single, 0.15 * single);
  // The LLC must be absorbing the ring-buffer reuse (the replay works at
  // row-range granularity, so L1-level reuse is under-represented; the
  // LLC hit rate is the meaningful signal).
  EXPECT_GT(1.0 - rep.levels[2].miss_rate(), 0.7);
}

// ------------------------------------------------------- golden replay --
// Exact replay output for every kernel shape, scheme, schedule family and
// store kind. The cache model is order-sensitive, so these values pin the
// replayed address stream itself, not only its totals: any reordering of
// a scheme's reads and writes shows up here.

enum class K { k7pt, k27pt, kLbm };
using S = Scheme;
using F = core::ScheduleFamily;

// 28x26x24, 3 steps (one full dim_t = 2 pass and a partial one), tiles
// 16x12, 4D blocks 16x12x10 (the diamond family reads dim_z as W).
TraceConfig golden_cfg(K k) {
  TraceConfig cfg;
  cfg.nx = 28;
  cfg.ny = 26;
  cfg.nz = 24;
  cfg.steps = 3;
  cfg.elem_bytes = 4;
  cfg.radius = 1;
  cfg.cube_neighborhood = k == K::k27pt;
  cfg.cache.size_bytes = k == K::kLbm ? 256u << 10 : 64u << 10;
  cfg.cache.ways = 8;
  cfg.dim_x = 16;
  cfg.dim_y = 12;
  cfg.dim_z = 10;
  cfg.dim_t = 2;
  return cfg;
}

TrafficReport golden_run(K k, S s, const TraceConfig& cfg) {
  return k == K::kLbm ? trace_lbm(s, cfg) : trace_stencil(s, cfg);
}

struct Golden {
  K kernel;
  S scheme;
  F family;
  bool streaming;
  std::uint64_t read_bytes, write_bytes;
  std::uint64_t read_hits, read_misses, write_hits, write_misses;
};

// clang-format off
constexpr Golden kGolden[] = {
    {K::k7pt, S::kNaive, F::kPaper35D, false,
     440832, 202752, 12120, 3720, 0, 3168},
    {K::k7pt, S::kSpatial3D, F::kPaper35D, false,
     440832, 202752, 20040, 3720, 1584, 3168},
    {K::k7pt, S::kSpatial25D, F::kPaper35D, false,
     537984, 267904, 19731, 4221, 5751, 4185},
    {K::k7pt, S::kSpatial25D, F::kDeep35D, false,
     537984, 267904, 19731, 4221, 5751, 4185},
    {K::k7pt, S::kSpatial25D, F::kDiamond, false,
     659968, 362624, 19306, 4646, 4270, 5666},
    {K::k7pt, S::kTemporalOnly, F::kPaper35D, false,
     359936, 199680, 17464, 2504, 3120, 3120},
    {K::k7pt, S::kTemporalOnly, F::kDeep35D, false,
     359936, 199680, 17464, 2504, 3120, 3120},
    {K::k7pt, S::kTemporalOnly, F::kDiamond, false,
     621248, 399360, 16499, 3469, 2, 6238},
    {K::k7pt, S::kBlocked4D, F::kPaper35D, false,
     357504, 178240, 43225, 2807, 6893, 2779},
    {K::k7pt, S::kBlocked35D, F::kPaper35D, false,
     373056, 185664, 20048, 2928, 5355, 2901},
    {K::k7pt, S::kBlocked35D, F::kDeep35D, false,
     373056, 185664, 20048, 2928, 5355, 2901},
    {K::k7pt, S::kBlocked35D, F::kDiamond, false,
     552128, 317120, 19304, 3672, 3301, 4955},
    {K::k7pt, S::kNaive, F::kPaper35D, true,
     238080, 202752, 12120, 3720, 0, 0},
    {K::k7pt, S::kSpatial3D, F::kPaper35D, true,
     238080, 304128, 20040, 3720, 0, 0},
    {K::k7pt, S::kSpatial25D, F::kPaper35D, true,
     249024, 368640, 20205, 3747, 4176, 144},
    {K::k7pt, S::kSpatial25D, F::kDeep35D, true,
     249024, 368640, 20205, 3747, 4176, 144},
    {K::k7pt, S::kSpatial25D, F::kDiamond, true,
     285888, 405504, 20205, 3747, 3600, 720},
    {K::k7pt, S::kTemporalOnly, F::kPaper35D, true,
     200192, 199680, 17464, 2504, 3120, 624},
    {K::k7pt, S::kTemporalOnly, F::kDeep35D, true,
     200192, 199680, 17464, 2504, 3120, 624},
    {K::k7pt, S::kTemporalOnly, F::kDiamond, true,
     441472, 399360, 16812, 3156, 2, 3742},
    {K::k7pt, S::kBlocked4D, F::kPaper35D, true,
     179008, 255680, 43478, 2554, 5685, 243},
    {K::k7pt, S::kBlocked35D, F::kPaper35D, true,
     169024, 248576, 20475, 2501, 4372, 140},
    {K::k7pt, S::kBlocked35D, F::kDeep35D, true,
     169024, 248576, 20475, 2501, 4372, 140},
    {K::k7pt, S::kBlocked35D, F::kDiamond, true,
     238016, 290752, 20056, 2920, 3713, 799},
    {K::k27pt, S::kNaive, F::kPaper35D, false,
     442368, 202752, 24768, 3744, 0, 3168},
    {K::k27pt, S::kSpatial3D, F::kPaper35D, false,
     442304, 202752, 39025, 3743, 1584, 3168},
    {K::k27pt, S::kSpatial25D, F::kPaper35D, false,
     537984, 267904, 33459, 4221, 5751, 4185},
    {K::k27pt, S::kSpatial25D, F::kDeep35D, false,
     537984, 267904, 33459, 4221, 5751, 4185},
    {K::k27pt, S::kSpatial25D, F::kDiamond, false,
     658688, 361408, 33035, 4645, 4289, 5647},
    {K::k27pt, S::kTemporalOnly, F::kPaper35D, false,
     359936, 199680, 31192, 2504, 3120, 3120},
    {K::k27pt, S::kTemporalOnly, F::kDeep35D, false,
     359936, 199680, 31192, 2504, 3120, 3120},
    {K::k27pt, S::kTemporalOnly, F::kDiamond, false,
     623744, 399360, 30182, 3514, 8, 6232},
    {K::k27pt, S::kBlocked4D, F::kPaper35D, false,
     358272, 178048, 75079, 2825, 6899, 2773},
    {K::k27pt, S::kBlocked35D, F::kPaper35D, false,
     373056, 185664, 34480, 2928, 5355, 2901},
    {K::k27pt, S::kBlocked35D, F::kDeep35D, false,
     373056, 185664, 34480, 2928, 5355, 2901},
    {K::k27pt, S::kBlocked35D, F::kDiamond, false,
     550336, 316032, 33746, 3662, 3319, 4937},
    {K::k27pt, S::kNaive, F::kPaper35D, true,
     239616, 202752, 24768, 3744, 0, 0},
    {K::k27pt, S::kSpatial3D, F::kPaper35D, true,
     239616, 304128, 39024, 3744, 0, 0},
    {K::k27pt, S::kSpatial25D, F::kPaper35D, true,
     249024, 368640, 33933, 3747, 4176, 144},
    {K::k27pt, S::kSpatial25D, F::kDeep35D, true,
     249024, 368640, 33933, 3747, 4176, 144},
    {K::k27pt, S::kSpatial25D, F::kDiamond, true,
     285888, 405504, 33933, 3747, 3600, 720},
    {K::k27pt, S::kTemporalOnly, F::kPaper35D, true,
     200192, 199680, 31192, 2504, 3120, 624},
    {K::k27pt, S::kTemporalOnly, F::kDeep35D, true,
     200192, 199680, 31192, 2504, 3120, 624},
    {K::k27pt, S::kTemporalOnly, F::kDiamond, true,
     443520, 399360, 30500, 3196, 10, 3734},
    {K::k27pt, S::kBlocked4D, F::kPaper35D, true,
     179200, 255616, 75345, 2559, 5687, 241},
    {K::k27pt, S::kBlocked35D, F::kPaper35D, true,
     169024, 248576, 34907, 2501, 4372, 140},
    {K::k27pt, S::kBlocked35D, F::kDeep35D, true,
     169024, 248576, 34907, 2501, 4372, 140},
    {K::k27pt, S::kBlocked35D, F::kDiamond, true,
     237888, 290752, 34489, 2919, 3714, 798},
    {K::kLbm, S::kNaive, F::kPaper35D, false,
     8844288, 4362240, 0, 70032, 0, 68160},
    {K::kLbm, S::kSpatial3D, F::kPaper35D, false,
     8844288, 4362240, 0, 70032, 0, 68160},
    {K::kLbm, S::kSpatial25D, F::kPaper35D, false,
     15595392, 7499328, 75626, 130642, 75748, 113036},
    {K::kLbm, S::kSpatial25D, F::kDeep35D, false,
     15595392, 7499328, 75626, 130642, 75748, 113036},
    {K::kLbm, S::kSpatial25D, F::kDiamond, false,
     21876864, 11476032, 43130, 163138, 10096, 178688},
    {K::kLbm, S::kTemporalOnly, F::kPaper35D, false,
     14239104, 7586240, 11553, 117303, 13377, 105183},
    {K::kLbm, S::kTemporalOnly, F::kDeep35D, false,
     14239104, 7586240, 11553, 117303, 13377, 105183},
    {K::kLbm, S::kTemporalOnly, F::kDiamond, false,
     14940672, 7587840, 13968, 114888, 0, 118560},
    {K::kLbm, S::kBlocked4D, F::kPaper35D, false,
     20190912, 11309120, 75005, 142627, 10912, 172856},
    {K::kLbm, S::kBlocked35D, F::kPaper35D, false,
     11393920, 5584064, 84580, 96544, 75378, 81486},
    {K::kLbm, S::kBlocked35D, F::kDeep35D, false,
     11393920, 5584064, 84580, 96544, 75378, 81486},
    {K::kLbm, S::kBlocked35D, F::kDiamond, false,
     17491840, 9693632, 58943, 122181, 5735, 151129},
};
// clang-format on

TEST(TrafficGolden, EveryKernelSchemeFamilyAndStoreKind) {
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(std::string(to_string(g.scheme)) + " kernel " +
                 std::to_string(static_cast<int>(g.kernel)) + " family " +
                 core::to_string(g.family) + (g.streaming ? " streaming" : ""));
    TraceConfig cfg = golden_cfg(g.kernel);
    cfg.family = g.family;
    cfg.streaming_stores = g.streaming;
    const TrafficReport r = golden_run(g.kernel, g.scheme, cfg);
    EXPECT_EQ(r.external_read_bytes, g.read_bytes);
    EXPECT_EQ(r.external_write_bytes, g.write_bytes);
    EXPECT_EQ(r.cache.read_hits, g.read_hits);
    EXPECT_EQ(r.cache.read_misses, g.read_misses);
    EXPECT_EQ(r.cache.write_hits, g.write_hits);
    EXPECT_EQ(r.cache.write_misses, g.write_misses);
  }
}

void expect_level(const CacheStats& got, const CacheStats& want) {
  EXPECT_EQ(got.read_hits, want.read_hits);
  EXPECT_EQ(got.read_misses, want.read_misses);
  EXPECT_EQ(got.write_hits, want.write_hits);
  EXPECT_EQ(got.write_misses, want.write_misses);
  EXPECT_EQ(got.bytes_from_memory, want.bytes_from_memory);
  EXPECT_EQ(got.bytes_to_memory, want.bytes_to_memory);
}

TEST(TrafficGolden, HierarchyPerLevelStats) {
  HierarchyConfig h;
  h.levels.push_back({4u << 10, 4, 64});
  h.levels.push_back({16u << 10, 8, 64});
  h.levels.push_back({64u << 10, 8, 64});
  const struct {
    K kernel;
    std::uint64_t read_bytes, write_bytes;
    CacheStats levels[3];
  } cases[] = {
      {K::k7pt, 366848, 174976,
       {{9380, 13596, 1585, 6671, 1297088, 510720},
        {11726, 8541, 7944, 36, 548928, 252096},
        {2965, 5576, 3759, 156, 366848, 174976}}},
      {K::kLbm, 19446912, 9939072,
       {{8756, 172368, 0, 156864, 21070848, 10039296},
        {5143, 324089, 156864, 0, 20741696, 10039296},
        {20285, 303804, 156810, 54, 19446912, 9939072}}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(static_cast<int>(c.kernel));
    TraceConfig cfg = golden_cfg(c.kernel);
    cfg.hierarchy = &h;
    const TrafficReport r = golden_run(c.kernel, S::kBlocked35D, cfg);
    EXPECT_EQ(r.external_read_bytes, c.read_bytes);
    EXPECT_EQ(r.external_write_bytes, c.write_bytes);
    ASSERT_EQ(r.levels.size(), 3u);
    for (int k = 0; k < 3; ++k) expect_level(r.levels[k], c.levels[k]);
  }
}

// Radius 2 widens every stencil row read by two cells on each side.
TEST(TrafficGolden, RadiusTwoStencil) {
  const struct {
    S scheme;
    std::uint64_t read_bytes, write_bytes;
    std::uint64_t read_hits, read_misses, write_hits, write_misses;
  } cases[] = {
      {S::kNaive, 402432, 168960, 20112, 3648, 0, 2640},
      {S::kBlocked4D, 949248, 415936, 125950, 8914, 13282, 5918},
      {S::kBlocked35D, 569152, 232704, 45327, 5257, 6252, 3636},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(to_string(c.scheme));
    TraceConfig cfg = golden_cfg(K::k7pt);
    cfg.radius = 2;
    cfg.dim_x = 20;
    cfg.dim_y = 18;
    const TrafficReport r = trace_stencil(c.scheme, cfg);
    EXPECT_EQ(r.external_read_bytes, c.read_bytes);
    EXPECT_EQ(r.external_write_bytes, c.write_bytes);
    EXPECT_EQ(r.cache.read_hits, c.read_hits);
    EXPECT_EQ(r.cache.read_misses, c.read_misses);
    EXPECT_EQ(r.cache.write_hits, c.write_hits);
    EXPECT_EQ(r.cache.write_misses, c.write_misses);
  }
}

TEST(TrafficGolden, LbmTlbMisses) {
  const TraceConfig cfg = golden_cfg(K::kLbm);
  EXPECT_DOUBLE_EQ(lbm_tlb_misses_per_update(cfg, {64, 4096}), 0.0441468253968254);
  EXPECT_DOUBLE_EQ(lbm_tlb_misses_per_update(cfg, {32, 2u << 20}),
                   0.00041971916971916975);
}

// With dim_t = 0 a 4D pass advances 0 steps, so the run would never end;
// the shared pass loop rejects it.
TEST(TrafficDeathTest, Blocked4DNeedsPositiveDimT) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  TraceConfig cfg = golden_cfg(K::k7pt);
  cfg.dim_t = 0;
  EXPECT_DEATH(trace_stencil(S::kBlocked4D, cfg), "dim_t >= 1");
  TraceConfig lcfg = golden_cfg(K::kLbm);
  lcfg.dim_t = 0;
  EXPECT_DEATH(trace_lbm(S::kBlocked4D, lcfg), "dim_t >= 1");
}

TEST(Scheme, NamesStable) {
  EXPECT_STREQ(to_string(Scheme::kBlocked35D), "3.5d");
  EXPECT_STREQ(to_string(Scheme::kNaive), "naive");
}

}  // namespace
}  // namespace s35::memsim
