// Distributed-memory-style Z-slab decomposition for the LBM solver: the
// shared thick-halo driver of core/distributed.h over Lattice (halos carry
// all 19 distributions), with the LBM slab kernel as the per-rank pass.
// The only LBM-specific part is the geometry: it is sliced per rank from
// the retained global copy (flags are time-invariant) and re-sliced after
// a degraded-mode repartition. See docs/RESILIENCE.md.
#pragma once

#include <cstring>
#include <memory>
#include <vector>

#include "core/distributed.h"
#include "lbm/sweeps.h"

namespace s35::lbm {

using core::CommStats;

template <typename T>
class DistributedLbmDriver : public core::ZSlabDriver<Lattice<T>> {
  using Base = core::ZSlabDriver<Lattice<T>>;

 public:
  DistributedLbmDriver(const Geometry& global_geom, int ranks, int dim_t)
      : Base(global_geom.nx(), global_geom.ny(), global_geom.nz(), ranks, dim_t, 1),
        global_geom_(global_geom) {}

  // Same contract as stencil::DistributedStencilDriver::run_guarded.
  fault::Status run_guarded(const BgkParams<T>& prm, int steps, const SweepConfig& cfg,
                            core::Engine35& engine) {
    return this->run_slabs(
        steps, cfg, engine,
        [&](int r, auto tag, const Lattice<T>& src, Lattice<T>& dst,
            const core::PassShape& s, int planes,
            const integrity::IntegrityContext& ictx) {
          return LbmSlabKernel<T, decltype(tag)>(rank_geometry(r), prm, src, dst,
                                                 s.dim_x, s.dim_y, s.pass_t, planes,
                                                 cfg.kernel, ictx);
        });
  }

  void run(const BgkParams<T>& prm, int steps, const SweepConfig& cfg,
           core::Engine35& engine) {
    const fault::Status st = run_guarded(prm, steps, cfg, engine);
    S35_CHECK_MSG(st.ok(), st.to_string().c_str());
  }

 private:
  // Rank r's slice of the global geometry over its extended z range,
  // re-sliced whenever the partition changed.
  const Geometry& rank_geometry(int r) {
    if (geoms_epoch_ != this->partition_epoch()) {
      geoms_.clear();
      const long nx = global_geom_.nx(), ny = global_geom_.ny();
      for (int k = 0; k < this->ranks(); ++k) {
        const auto& ext = this->extended(k);
        auto geom = std::make_unique<Geometry>(nx, ny, ext.end - ext.begin);
        for (long z = ext.begin; z < ext.end; ++z)
          for (long y = 0; y < ny; ++y)
            std::memcpy(geom->row(y, z - ext.begin), global_geom_.row(y, z),
                        static_cast<std::size_t>(geom->pitch()));
        geom->finalize(/*frozen_z_edges=*/true);
        geoms_.push_back(std::move(geom));
      }
      geoms_epoch_ = this->partition_epoch();
    }
    return *geoms_[static_cast<std::size_t>(r)];
  }

  Geometry global_geom_;  // retained for degraded-mode re-slicing
  std::vector<std::unique_ptr<Geometry>> geoms_;
  std::uint64_t geoms_epoch_ = 0;  // partition the slices belong to
};

}  // namespace s35::lbm
