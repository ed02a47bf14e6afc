// Periodic boundaries through thick halos, written once for grids,
// lattices and the LBM flag field.
//
// The 3.5D engine's frozen-shell boundary model cannot express periodic
// axes directly, so the periodic drivers (stencil/periodic.h,
// lbm/periodic.h) use the distributed-memory temporal-blocking idiom
// instead (Wittmann et al., PAPERS.md): pad each periodic axis with a halo
// of `pad` cells holding periodic images, run one blocked pass of dim_t
// steps, then refresh the halos from the opposite interior. Interior
// results are exact because wrong information from the outer shell
// travels only R cells per time step, so `pad` is R·dim_t for a grid and
// dim_t+1 for a lattice (whose outermost cell is its wall shell, which the
// refresh leaves untouched).
#pragma once

#include <cstring>

#include "common/check.h"
#include "core/field.h"

namespace s35::core {

// Halo geometry of a padded field, per axis (x, y, z).
struct PeriodicHalo {
  long n[3] = {0, 0, 0};    // logical (unpadded) extent
  long pad[3] = {0, 0, 0};  // halo width on each side; 0 = not periodic
  long shell = 0;           // outermost cells of a periodic axis left untouched

  PeriodicHalo(long nx, long ny, long nz, long pad_x, long pad_y, long pad_z,
               long shell_width)
      : n{nx, ny, nz}, pad{pad_x, pad_y, pad_z}, shell(shell_width) {
    for (int d = 0; d < 3; ++d)
      S35_CHECK_MSG(n[d] >= pad[d], "domain too small for its periodic halo");
  }
  long padded(int d) const { return n[d] + 2 * pad[d]; }
};

// Copies periodic images into the halo cells of `arrays` arrays of T whose
// rows row(a, y, z) are addressed in padded coordinates. The axes are
// refreshed X, then Y, then Z; each phase spans the full padded range of
// the axes refreshed before it and the interior of those after it, so
// edges and corners receive already-refreshed data.
template <typename T, typename RowFn>
void refresh_periodic_halos(const PeriodicHalo& h, int arrays, RowFn&& row) {
  const long wx = h.padded(0), wy = h.padded(1), wz = h.padded(2);
  const long s = h.shell;
  const long nx = h.n[0], ny = h.n[1], nz = h.n[2];
  const std::size_t row_bytes = static_cast<std::size_t>(wx) * sizeof(T);
  const auto copy_row = [&](int a, long y, long z, long from_y, long from_z) {
    std::memcpy(row(a, y, z), row(a, from_y, from_z), row_bytes);
  };
  for (int a = 0; a < arrays; ++a) {
    if (h.pad[0] > 0) {
      for (long z = h.pad[2]; z < h.pad[2] + nz; ++z)
        for (long y = h.pad[1]; y < h.pad[1] + ny; ++y) {
          T* r = row(a, y, z);
          for (long x = s; x < h.pad[0]; ++x) r[x] = r[x + nx];
          for (long x = h.pad[0] + nx; x < wx - s; ++x) r[x] = r[x - nx];
        }
    }
    if (h.pad[1] > 0) {
      for (long z = h.pad[2]; z < h.pad[2] + nz; ++z) {
        for (long y = s; y < h.pad[1]; ++y) copy_row(a, y, z, y + ny, z);
        for (long y = h.pad[1] + ny; y < wy - s; ++y) copy_row(a, y, z, y - ny, z);
      }
    }
    if (h.pad[2] > 0) {
      for (long y = 0; y < wy; ++y) {
        for (long z = s; z < h.pad[2]; ++z) copy_row(a, y, z, y, z + nz);
        for (long z = h.pad[2] + nz; z < wz - s; ++z) copy_row(a, y, z, y, z - nz);
      }
    }
  }
}

// The same refresh over every array of a field (core/field.h).
template <typename F>
void refresh_periodic_halos(const PeriodicHalo& h, F& f) {
  using Tr = FieldTraits<F>;
  refresh_periodic_halos<typename Tr::Value>(
      h, Tr::kArrays, [&f](int a, long y, long z) { return Tr::row(f, a, y, z); });
}

}  // namespace s35::core
