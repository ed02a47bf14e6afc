// Engine35 kernel policy for D3Q19 LBM.
//
// core::SlabRing holds, per time instance and ring slot, the 19 SoA
// sub-planes of dim_x x dim_y (E = 19 values + the flag; flags are static
// and read from the shared Geometry, Section VI-B) and does the loads,
// frozen-plane copies and integrity work; this policy adds the
// collide-stream compute step and its scalar-lane audit.
#pragma once

#include <string>
#include <vector>

#include "core/engine.h"
#include "core/kernel_options.h"
#include "core/slab_ring.h"
#include "integrity/integrity.h"
#include "lbm/collide.h"
#include "lbm/lattice.h"
#include "parallel/thread_team.h"
#include "simd/simd.h"

namespace s35::lbm {

template <typename T, typename Tag = simd::DefaultTag>
class LbmSlabKernel : public core::SlabRing<Lattice<T>> {
  using Base = core::SlabRing<Lattice<T>>;
  static constexpr long R = 1;  // L-inf extent of D3Q19

 public:
  template <typename Params>
  LbmSlabKernel(const Geometry& geom, const Params& prm, const Lattice<T>& src,
                Lattice<T>& dst, long dim_x, long dim_y, int dim_t,
                int planes_per_instance, core::KernelOptions opts = {},
                integrity::IntegrityContext ictx = {})
      : Base(src, dst, dim_x, dim_y, dim_t, planes_per_instance, opts, ictx),
        geom_(&geom) {
    S35_CHECK(geom.finalized());
    ctx_.omega = prm.omega;
    ctx_.omega_minus =
        prm.trt_magic > T(0) ? trt_omega_minus<T>(prm.omega, prm.trt_magic) : T(0);
    moving_wall_corrections(prm.u_wall, ctx_.mw_corr);
    body_force_terms(prm.force, ctx_.force_corr);
  }

  void execute(const core::Tile& tile, const core::Step& step, long y, long x0, long x1) {
    switch (step.kind) {
      case core::StepKind::kLoad:
        this->load_row(tile, step, y, x0, x1);
        return;
      case core::StepKind::kCopy:
        this->copy_row(tile, step, y, x0, x1);
        return;
      case core::StepKind::kCompute: {
        const int si = step.t - 1;
        const bool fma = this->opts_.allow_fma;
        const auto src_acc = [&](int i, int dy, int dz) -> const T* {
          return this->buffer_row(tile, si,
                                  step.src_slots[static_cast<std::size_t>(dz + R)], i,
                                  y + dy);
        };
        if (step.to_external) {
          const auto dst_acc = [&](int i) -> T* { return this->dst_->row(i, y, step.z); };
          lbm_update_row<T, Tag>(*geom_, ctx_, src_acc, dst_acc, y, step.z, x0, x1, fma);
          if (this->ictx_.active()) {
            this->maybe_wrong_row(dst_acc(0), x0, x1, step, y);
            if (this->audit_row(step, y)) audit_span(src_acc, dst_acc, step, y, x0, x1);
          }
          this->guard_store(step, y, x0, x1);
        } else {
          const auto dst_acc = [&](int i) -> T* {
            return this->buffer_row(tile, step.t, step.dst_slot, i, y);
          };
          lbm_update_row<T, Tag>(*geom_, ctx_, src_acc, dst_acc, y, step.z, x0, x1, fma);
          if (this->audit_row(step, y)) audit_span(src_acc, dst_acc, step, y, x0, x1);
        }
        return;
      }
    }
  }

 private:
  // Audits row (y, z) by replaying the scalar-lane reference
  // (lbm_update_row over ScalarTag — same expression tree per lane) into
  // per-thread scratch and comparing all 19 distributions.
  template <typename SrcAcc, typename DstAcc>
  void audit_span(const SrcAcc& src_acc, const DstAcc& dst_acc, const core::Step& step,
                  long y, long x0, long x1) {
    const telemetry::ScopedPhase phase(parallel::current_tid(),
                                       telemetry::Phase::kAudit);
    const bool fma = this->opts_.allow_fma;
    const long span = x1 - x0;
    static thread_local std::vector<T> scratch;
    scratch.resize(static_cast<std::size_t>(span) * kQ);
    const auto ref_acc = [&](int i) -> T* {
      return scratch.data() + static_cast<std::size_t>(i) * span - x0;
    };
    lbm_update_row<T, simd::ScalarTag>(*geom_, ctx_, src_acc, ref_acc, y, step.z, x0,
                                       x1, fma);
    for (int i = 0; i < kQ; ++i) {
      const T* fast = dst_acc(i);
      const T* ref = ref_acc(i);
      for (long x = x0; x < x1; ++x) {
        if (integrity::audit_matches(fast[x], ref[x], fma)) continue;
        this->audit_result(step, y,
                           "lbm audit mismatch at x=" + std::to_string(x) + " i=" +
                               std::to_string(i) + ": fast=" +
                               std::to_string(static_cast<double>(fast[x])) + " ref=" +
                               std::to_string(static_cast<double>(ref[x])));
        return;
      }
    }
    this->audit_result(step, y, {});
  }

  const Geometry* geom_;
  CollideCtx<T> ctx_;
};

}  // namespace s35::lbm
