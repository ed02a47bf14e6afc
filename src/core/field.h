// Field trait: what the 3.5D layers need to know about a field type.
//
// The paper drives the 7-point stencil and D3Q19 LBM through one 3.5D
// framework; per field only the element size E differs (eq. 1: one value
// per cell for a grid, 19 distributions for the lattice). Here that is the
// array count kArrays — every array shares the padded X-fastest row layout
// of grid::Grid3 — plus row(a, y, z) and the checkpoint kind. The slab
// ring (core/slab_ring.h), the pass runner (core/passes.h) and the Z-slab
// driver (core/distributed.h) are written once against this trait.
//
// grid::Grid3 is described here; lbm::Lattice specializes the trait in
// lbm/lattice.h.
#pragma once

#include <cstring>
#include <string>

#include "common/crc32c.h"
#include "fault/io_backend.h"
#include "fault/status.h"
#include "grid/checkpoint.h"
#include "grid/grid3.h"

namespace s35::core {

// Specializations provide: Value, Pair (the Jacobi src/dst pair), kArrays,
// kKind (checkpoint kind) and row(f, a, y, z) for const and mutable fields.
template <typename F>
struct FieldTraits;

template <typename T>
struct FieldTraits<grid::Grid3<T>> {
  using Value = T;
  using Pair = grid::GridPair<T>;
  static constexpr int kArrays = 1;
  static constexpr grid::detail::Kind kKind = grid::detail::kKindGrid;
  static T* row(grid::Grid3<T>& g, int, long y, long z) { return g.row(y, z); }
  static const T* row(const grid::Grid3<T>& g, int, long y, long z) {
    return g.row(y, z);
  }
};

// Copies planes [z0, z1) of every array from `src` (whose plane 0 is global
// z = src_lo) into `dst` (plane 0 at global z = dst_lo).
template <typename F>
void copy_planes(const F& src, long src_lo, F& dst, long dst_lo, long z0, long z1) {
  using Tr = FieldTraits<F>;
  const std::size_t row_bytes =
      static_cast<std::size_t>(src.nx()) * sizeof(typename Tr::Value);
  for (int a = 0; a < Tr::kArrays; ++a)
    for (long z = z0; z < z1; ++z)
      for (long y = 0; y < src.ny(); ++y)
        std::memcpy(Tr::row(dst, a, y, z - dst_lo), Tr::row(src, a, y, z - src_lo),
                    row_bytes);
}

// CRC32C over planes [z0, z1) of every array (plane 0 at global z = lo).
template <typename F>
std::uint32_t planes_crc(const F& f, long lo, long z0, long z1) {
  using Tr = FieldTraits<F>;
  const std::size_t row_bytes =
      static_cast<std::size_t>(f.nx()) * sizeof(typename Tr::Value);
  std::uint32_t crc = 0;
  for (int a = 0; a < Tr::kArrays; ++a)
    for (long z = z0; z < z1; ++z)
      for (long y = 0; y < f.ny(); ++y)
        crc = crc32c(Tr::row(f, a, y, z - lo), row_bytes, crc);
  return crc;
}

// Durable format-v2 checkpoint of a whole field, through the grid or the
// multi-array writer its kind selects (so the bytes match those writers).
template <typename F>
fault::Status save_field(const std::string& path, const F& f, std::uint64_t user_tag,
                         fault::IoBackend* io) {
  using Tr = FieldTraits<F>;
  if constexpr (Tr::kKind == grid::detail::kKindGrid)
    return grid::save_checkpoint_ex(path, f, user_tag, io);
  else
    return grid::save_checkpoint_arrays_ex(path, f, Tr::kArrays, user_tag, io);
}

// Loads a v2 (CRC-verified) or legacy v1 checkpoint of the field's kind.
template <typename F>
fault::Status load_field(const std::string& path, F& f, std::uint64_t* user_tag,
                         fault::IoBackend* io) {
  using Tr = FieldTraits<F>;
  if constexpr (Tr::kKind == grid::detail::kKindGrid)
    return grid::load_checkpoint_ex(path, f, user_tag, io);
  else
    return grid::load_checkpoint_arrays_ex(path, f, Tr::kArrays, user_tag, io);
}

}  // namespace s35::core
