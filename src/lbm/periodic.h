// Periodic boundaries for the blocked LBM solver via thick halos
// (core/halo.h): each periodic axis is padded with H = R·dim_t fluid cells
// plus the mandatory 1-cell wall shell (pad dim_t+1, shell 1), one blocked
// pass of dim_t steps runs on the padded lattice, and the halos are
// refreshed from the opposite interior between passes. This extends the
// paper's scheme to the periodic domains most LBM applications (channels,
// turbulence boxes) need.
//
// The user works in logical coordinates [0, nx) x [0, ny) x [0, nz);
// geometry edits and probes are translated to the padded domain
// automatically, and flags set near a periodic face are mirrored into the
// halos at finalize time by the same refresh.
#pragma once

#include <cstdint>

#include "core/blocks_4d.h"
#include "core/engine.h"
#include "core/halo.h"
#include "lbm/sweeps.h"

namespace s35::lbm {

template <typename T>
class PeriodicLbmDriver {
 public:
  struct Options {
    bool periodic_x = true;
    bool periodic_z = true;
    int dim_t = 3;
    long dim_x = 0;  // 3.5D tile width in the padded domain; 0 = whole axis
    long dim_y = 0;
    Variant variant = Variant::kBlocked35D;
  };

  PeriodicLbmDriver(long nx, long ny, long nz, const Options& opt)
      : opt_(opt),
        halo_(nx, ny, nz, opt.periodic_x ? opt.dim_t + 1 : 0, 0,
              opt.periodic_z ? opt.dim_t + 1 : 0, /*shell_width=*/1),
        geom_(halo_.padded(0), ny, halo_.padded(2)),
        pair_(halo_.padded(0), ny, halo_.padded(2)) {
    S35_CHECK(opt.dim_t >= 1);
    geom_.set_box_walls();
    pair_.src().init_equilibrium();
    pair_.dst().init_equilibrium();
  }

  long nx() const { return halo_.n[0]; }
  long ny() const { return halo_.n[1]; }
  long nz() const { return halo_.n[2]; }

  // Geometry edits in logical coordinates. Non-periodic axes still carry
  // the outer wall shell, so logical boundary faces on those axes are the
  // usual kWall unless overridden here.
  void set_flag(long x, long y, long z, CellType t) {
    geom_.set(px(x), y, pz(z), t);
  }
  CellType flag(long x, long y, long z) const { return geom_.at(px(x), y, pz(z)); }

  // Marks the y = ny-1 plane (minus edges) as a moving wall across the
  // whole padded domain, halos included.
  void set_lid() {
    for (long z = 1; z < halo_.padded(2) - 1; ++z)
      for (long x = 1; x < halo_.padded(0) - 1; ++x)
        geom_.set(x, ny() - 1, z, kMovingWall);
  }

  // Mirrors flags into the halos and freezes the geometry. Call after all
  // set_flag edits and before run().
  void finalize() {
    core::refresh_periodic_halos<std::uint8_t>(
        halo_, 1, [this](int, long y, long z) { return geom_.row(y, z); });
    geom_.finalize();
  }

  // Cell probes in logical coordinates.
  void velocity(long x, long y, long z, T u[3]) const {
    pair_.src().velocity(px(x), y, pz(z), u);
  }
  T density(long x, long y, long z) const { return pair_.src().density(px(x), y, pz(z)); }
  Lattice<T>& lattice() { return pair_.src(); }
  const Geometry& geometry() const { return geom_; }

  // Advances `steps` time steps with halo refreshes between blocked passes.
  void run(int steps, const BgkParams<T>& prm, core::Engine35& engine) {
    S35_CHECK_MSG(geom_.finalized(), "call finalize() first");
    core::for_each_pass(steps, opt_.dim_t, [&](int dt) {
      core::refresh_periodic_halos(halo_, pair_.src());
      SweepConfig cfg;
      cfg.dim_t = dt;
      cfg.dim_x = opt_.dim_x > 0 ? opt_.dim_x : halo_.padded(0);
      cfg.dim_y = opt_.dim_y > 0 ? opt_.dim_y : ny();
      run_lbm<T>(opt_.variant, geom_, prm, pair_, dt, cfg, engine);
    });
  }

 private:
  long px(long x) const {
    S35_DCHECK(x >= 0 && x < nx());
    return x + halo_.pad[0];
  }
  long pz(long z) const {
    S35_DCHECK(z >= 0 && z < nz());
    return z + halo_.pad[2];
  }

  Options opt_;
  core::PeriodicHalo halo_;
  Geometry geom_;
  LatticePair<T> pair_;
};

}  // namespace s35::lbm
