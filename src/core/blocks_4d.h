// 4D blocking baseline: 3D spatial blocks + 1D temporal blocking
// (Williams-style, the comparison scheme of Sections V-A2/VI and the "4D"
// bars of Figure 5), written once over core::FieldTraits for the stencil
// grid and the LBM lattice. Each block loads a (dim+2R·dim_t)^3 window of
// every array into a private buffer pair, advances dim_t time steps
// entirely in-buffer with the valid cube shrinking by R per step, and
// writes its output cube back. Ghost volume grows in all three dimensions,
// which is why its overestimation κ^4D (1.18X-2.71X for the paper's
// kernels) dwarfs the 3.5D scheme's (1.02X-1.34X), and why the LBM 4D bar
// gains only ~8% (Section VI-B).
//
// Blocks are independent, so parallelization assigns whole blocks to
// threads (each thread owns one buffer pair). The memsim 4D replay walks
// the same blocks (blocks_4d) and passes (for_each_pass).
#pragma once

#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/check.h"
#include "core/field.h"
#include "core/tiling.h"
#include "grid/grid3.h"
#include "parallel/partition.h"
#include "parallel/thread_team.h"

namespace s35::core {

// Splits `steps` into passes of dim_t steps (the last one possibly
// shorter) and calls pass(dt) for each.
template <typename Fn>
void for_each_pass(int steps, int dim_t, Fn&& pass) {
  S35_CHECK_MSG(dim_t >= 1, "temporal passes need dim_t >= 1");
  for (int remaining = steps; remaining > 0;) {
    const int dt = remaining < dim_t ? remaining : dim_t;
    pass(dt);
    remaining -= dt;
  }
}

// 4D block edges from a sweep or trace config: dim_x is required, dim_y
// and dim_z default to it.
struct Dims4D {
  long x, y, z;
};

template <typename Config>
Dims4D dims_4d(const Config& cfg) {
  S35_CHECK_MSG(cfg.dim_x > 0, "kBlocked4D needs dim_x");
  return {cfg.dim_x, cfg.dim_y > 0 ? cfg.dim_y : cfg.dim_x,
          cfg.dim_z > 0 ? cfg.dim_z : cfg.dim_x};
}

struct Block4D {
  AxisTile x, y, z;
};

// The blocks of one dt-step 4D pass in execution order (Z outer, X inner).
inline std::vector<Block4D> blocks_4d(long nx, long ny, long nz, const Dims4D& d,
                                      int radius, int dt) {
  const auto xs = split_axis_tiles(nx, d.x, radius, dt);
  const auto ys = split_axis_tiles(ny, d.y, radius, dt);
  const auto zs = split_axis_tiles(nz, d.z, radius, dt);
  std::vector<Block4D> blocks;
  blocks.reserve(xs.size() * ys.size() * zs.size());
  for (const auto& az : zs)
    for (const auto& ay : ys)
      for (const auto& ax : xs) blocks.push_back({ax, ay, az});
  return blocks;
}

// Advances `pair` by `steps` time steps in 4D passes of at most cfg.dim_t
// steps; result in pair.src(). For every row of every in-buffer step,
// update(in, out, y, z, x0, x1) computes cells [x0, x1) of row (y, z):
// in(a, dy, dz) is row (y+dy, z+dz) of array a at the previous time
// instance and out(a) the row to write (the pair's dst on a block's last
// step); both are indexable with global x.
template <typename Pair, typename Config, typename RowUpdate>
void run_4d(Pair& pair, int steps, int radius, const Config& cfg,
            parallel::ThreadTeam& team, RowUpdate&& update) {
  using F = std::remove_cvref_t<decltype(pair.src())>;
  using Tr = FieldTraits<F>;
  using T = typename Tr::Value;
  S35_CHECK(steps >= 0);
  const Dims4D d = dims_4d(cfg);
  const long nx = pair.src().nx(), ny = pair.src().ny(), nz = pair.src().nz();

  const long pitch = grid::padded_pitch(d.x, sizeof(T));
  const std::size_t buf_elems =
      static_cast<std::size_t>(pitch) * d.y * d.z * Tr::kArrays;
  const int nthreads = team.size();
  // One ping-pong buffer pair per thread, allocated outside the SPMD region.
  std::vector<AlignedBuffer<T>> bufs;
  bufs.reserve(static_cast<std::size_t>(2 * nthreads));
  for (int i = 0; i < 2 * nthreads; ++i) bufs.emplace_back(buf_elems);

  for_each_pass(steps, cfg.dim_t, [&](int dt) {
    const std::vector<Block4D> blocks = blocks_4d(nx, ny, nz, d, radius, dt);
    const F& src = pair.src();
    F& dst = pair.dst();
    team.run([&](int tid) {
      T* buf_a = bufs[static_cast<std::size_t>(2 * tid)].data();
      T* buf_b = bufs[static_cast<std::size_t>(2 * tid + 1)].data();
      const auto [b0, b1] =
          parallel::chunk_range(static_cast<long>(blocks.size()), nthreads, tid);
      for (long b = b0; b < b1; ++b) {
        const Block4D& blk = blocks[static_cast<std::size_t>(b)];
        const Extent lx = blk.x.load, ly = blk.y.load, lz = blk.z.load;
        // Row of array a of `buf` for global (y, z), indexable with global x.
        const auto brow = [&](T* buf, int a, long y, long z) -> T* {
          return buf + ((a * lz.size() + (z - lz.begin)) * ly.size() + (y - ly.begin)) *
                           pitch -
                 lx.begin;
        };

        for (int a = 0; a < Tr::kArrays; ++a)
          for (long z = lz.begin; z < lz.end; ++z)
            for (long y = ly.begin; y < ly.end; ++y)
              std::memcpy(brow(buf_a, a, y, z) + lx.begin,
                          Tr::row(src, a, y, z) + lx.begin,
                          static_cast<std::size_t>(lx.size()) * sizeof(T));

        for (int t = 1; t <= dt; ++t) {
          const Extent vx = shrink_extent(lx, nx, radius, t);
          const Extent vy = shrink_extent(ly, ny, radius, t);
          const Extent vz = shrink_extent(lz, nz, radius, t);
          const bool last = t == dt;
          for (long z = vz.begin; z < vz.end; ++z)
            for (long y = vy.begin; y < vy.end; ++y) {
              const auto in = [&](int a, int dy, int dz) -> const T* {
                return brow(buf_a, a, y + dy, z + dz);
              };
              const auto out = [&](int a) -> T* {
                return last ? Tr::row(dst, a, y, z) : brow(buf_b, a, y, z);
              };
              update(in, out, y, z, vx.begin, vx.end);
            }
          std::swap(buf_a, buf_b);
        }
      }
    });
    pair.swap();
  });
}

}  // namespace s35::core
