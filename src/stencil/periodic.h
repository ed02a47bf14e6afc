// Periodic boundaries for the blocked grid-stencil sweeps via thick halos
// (core/halo.h): each periodic axis is padded with P = R·dim_t halo cells
// holding periodic images; one blocked pass of dim_t steps runs on the
// padded grid (whose outermost R cells are the engine's frozen shell), and
// the halos are refreshed from the opposite interior between passes.
#pragma once

#include "core/blocks_4d.h"
#include "core/engine.h"
#include "core/halo.h"
#include "stencil/sweeps.h"

namespace s35::stencil {

template <typename S, typename T>
class PeriodicStencilDriver {
  static constexpr long R = S::radius;

 public:
  struct Options {
    bool periodic_x = true;
    bool periodic_y = true;
    bool periodic_z = true;
    int dim_t = 2;
    long dim_x = 0;  // 3.5D tile size on the padded plane; 0 = whole axis
    long dim_y = 0;
    Variant variant = Variant::kBlocked35D;
  };

  PeriodicStencilDriver(long nx, long ny, long nz, const Options& opt)
      : opt_(opt),
        halo_(nx, ny, nz, opt.periodic_x ? R * opt.dim_t : 0,
              opt.periodic_y ? R * opt.dim_t : 0, opt.periodic_z ? R * opt.dim_t : 0,
              /*shell_width=*/0),
        pair_(halo_.padded(0), halo_.padded(1), halo_.padded(2)) {
    S35_CHECK(opt.dim_t >= 1);
    // The padded grid still needs the engine's frozen shell even on
    // non-periodic axes; the halo construction guarantees it on periodic
    // ones (pad >= R), and callers own boundary values on the others.
  }

  long nx() const { return halo_.n[0]; }
  long ny() const { return halo_.n[1]; }
  long nz() const { return halo_.n[2]; }

  T& at(long x, long y, long z) {
    return pair_.src().at(x + halo_.pad[0], y + halo_.pad[1], z + halo_.pad[2]);
  }

  template <typename Fn>
  void fill_with(Fn&& fn) {
    for (long z = 0; z < nz(); ++z)
      for (long y = 0; y < ny(); ++y)
        for (long x = 0; x < nx(); ++x) at(x, y, z) = fn(x, y, z);
  }

  // Advances `steps` time steps of stencil S with halo refreshes between
  // blocked passes.
  void run(const S& stencil, int steps, core::Engine35& engine) {
    core::for_each_pass(steps, opt_.dim_t, [&](int dt) {
      core::refresh_periodic_halos(halo_, pair_.src());
      SweepConfig cfg;
      cfg.dim_t = dt;
      cfg.dim_x = opt_.dim_x > 0 ? opt_.dim_x : pair_.src().nx();
      cfg.dim_y = opt_.dim_y > 0 ? opt_.dim_y : pair_.src().ny();
      run_sweep(opt_.variant, stencil, pair_, dt, cfg, engine);
    });
  }

 private:
  Options opt_;
  core::PeriodicHalo halo_;
  grid::GridPair<T> pair_;
};

}  // namespace s35::stencil
