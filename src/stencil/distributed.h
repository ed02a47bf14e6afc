// Distributed-memory-style Z-slab decomposition for grid stencils: the
// shared thick-halo driver of core/distributed.h over grid::Grid3, with the
// stencil's slab kernel as the per-rank pass. See core/distributed.h for
// the decomposition, the halo exchange and the fault-tolerance ladder.
#pragma once

#include "core/distributed.h"
#include "stencil/sweeps.h"

namespace s35::stencil {

using core::CommStats;

template <typename S, typename T>
class DistributedStencilDriver : public core::ZSlabDriver<grid::Grid3<T>> {
  using Base = core::ZSlabDriver<grid::Grid3<T>>;

 public:
  // Decomposes an nx x ny x nz grid into `ranks` Z slabs. Every rank's
  // owned slab must be at least as deep as the halo (R * dim_t planes).
  DistributedStencilDriver(long nx, long ny, long nz, int ranks, int dim_t)
      : Base(nx, ny, nz, ranks, dim_t, S::radius) {}

  // Advances `steps` time steps: halo exchange, one blocked pass per rank,
  // repeat. The per-rank pass honors cfg's tiling, schedule family and
  // kernel options (ISA dispatched at run time); dim_t is fixed by the
  // constructor (it sizes the halos). Recoverable faults are absorbed;
  // anything else comes back as an error.
  fault::Status run_guarded(const S& stencil, int steps, const SweepConfig& cfg,
                            core::Engine35& engine) {
    return this->run_slabs(
        steps, cfg, engine,
        [&](int, auto tag, const grid::Grid3<T>& src, grid::Grid3<T>& dst,
            const core::PassShape& s, int planes,
            const integrity::IntegrityContext& ictx) {
          return StencilSlabKernel<S, T, decltype(tag)>(stencil, src, dst, s.dim_x,
                                                        s.dim_y, s.pass_t, planes,
                                                        cfg.streaming_stores,
                                                        cfg.kernel, ictx);
        });
  }

  // Legacy entry point: recoverable faults are still absorbed, anything
  // unrecoverable is fatal (matching the library's hard-invariant policy).
  void run(const S& stencil, int steps, const SweepConfig& cfg, core::Engine35& engine) {
    const fault::Status st = run_guarded(stencil, steps, cfg, engine);
    S35_CHECK_MSG(st.ok(), st.to_string().c_str());
  }
};

}  // namespace s35::stencil
