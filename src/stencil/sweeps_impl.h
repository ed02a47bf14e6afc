// Implementation of the run_sweep dispatcher (included from sweeps.h).
#pragma once

namespace s35::stencil {

// The Engine35-based variants (kSpatial25D, kTemporalOnly, kBlocked35D)
// through the shared pass runner (core/passes.h).
template <typename S, typename T, typename Tag>
fault::Status run_engine_sweep(Variant variant, const S& stencil, grid::GridPair<T>& pair,
                               int steps, const SweepConfig& cfg, core::Engine35& engine,
                               bool reexecute) {
  const core::PassShape shape =
      core::engine_pass_shape(variant, pair.src().nx(), pair.src().ny(), cfg);
  return core::run_passes(
      engine, pair, steps, S::radius, shape, cfg, cfg.integrity, reexecute,
      [&](const core::PassShape& s, int planes, const integrity::IntegrityContext& ictx) {
        return StencilSlabKernel<S, T, Tag>(stencil, pair.src(), pair.dst(), s.dim_x,
                                            s.dim_y, s.pass_t, planes,
                                            cfg.streaming_stores, cfg.kernel, ictx);
      });
}

template <typename S, typename T, typename Tag>
void run_sweep(Variant variant, const S& stencil, grid::GridPair<T>& pair, int steps,
               const SweepConfig& cfg, core::Engine35& engine) {
  constexpr long R = S::radius;
  const long nx = pair.src().nx();
  S35_CHECK(steps >= 0);

  switch (variant) {
    case Variant::kNaive:
    case Variant::kSpatial3D: {
      // One grid sweep per time step; interior writes only, so the frozen
      // shell must be present in both grids up front.
      {
        const telemetry::ScopedPhase phase(0, telemetry::Phase::kGhostFill);
        freeze_boundary(pair.src(), pair.dst(), R);
      }
      const long bx = cfg.dim_x > 0 ? cfg.dim_x : nx;
      const long by = cfg.dim_y > 0 ? cfg.dim_y : bx;
      const long bz = cfg.dim_z > 0 ? cfg.dim_z : bx;
      for (int s = 0; s < steps; ++s) {
        if (variant == Variant::kNaive) {
          sweep_step_naive<S, T, Tag>(stencil, pair.src(), pair.dst(), engine.team(),
                                      cfg.kernel);
        } else {
          sweep_step_3d<S, T, Tag>(stencil, pair.src(), pair.dst(), bx, by, bz,
                                   engine.team(), cfg.kernel);
        }
        pair.swap();
      }
      return;
    }

    case Variant::kSpatial25D:
    case Variant::kTemporalOnly:
    case Variant::kBlocked35D:
      // Detect-only: integrity events land on the monitor, no replay.
      (void)run_engine_sweep<S, T, Tag>(variant, stencil, pair, steps, cfg, engine,
                                        /*reexecute=*/false);
      return;

    case Variant::kBlocked4D: {
      // In-buffer rows copy the frozen shell and update the interior.
      using V = simd::Vec<T, Tag>;
      const long ny = pair.src().ny(), nz = pair.src().nz();
      core::run_4d(pair, steps, R, cfg, engine.team(),
                   [&](const auto& in, const auto& out, long y, long z, long x0,
                       long x1) {
                     const T* frozen = in(0, 0, 0);
                     T* row = out(0);
                     if (z < R || z >= nz - R || y < R || y >= ny - R) {
                       std::memcpy(row + x0, frozen + x0,
                                   static_cast<std::size_t>(x1 - x0) * sizeof(T));
                       return;
                     }
                     const long xa = x0 > R ? x0 : R;
                     const long xb = x1 < nx - R ? x1 : nx - R;
                     for (long x = x0; x < xa; ++x) row[x] = frozen[x];
                     for (long x = xb; x < x1; ++x) row[x] = frozen[x];
                     if (xa < xb) {
                       const auto acc = [&](int dz, int dy) { return in(0, dy, dz); };
                       update_row<V>(for_row(stencil, y, z), acc, row, xa, xb);
                     }
                   });
      return;
    }
  }
  S35_CHECK_MSG(false, "unknown Variant");
}

template <typename S, typename T, typename Tag>
fault::Status run_sweep_verified(Variant variant, const S& stencil,
                                 grid::GridPair<T>& pair, int steps,
                                 const SweepConfig& cfg, core::Engine35& engine) {
  S35_CHECK_MSG(variant == Variant::kSpatial25D || variant == Variant::kTemporalOnly ||
                    variant == Variant::kBlocked35D,
                "run_sweep_verified needs an Engine35 variant");
  return run_engine_sweep<S, T, Tag>(variant, stencil, pair, steps, cfg, engine,
                                     /*reexecute=*/true);
}

}  // namespace s35::stencil
