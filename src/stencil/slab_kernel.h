// Engine35 kernel policy for grid stencils (7-point, 27-point).
//
// The ring buffer, loads, frozen-plane copies and the integrity machinery
// live in core::SlabRing (one array per cell); this policy adds the stencil
// compute step, the deep family's row-pair fusion and the scalar audit.
#pragma once

#include <string>

#include "core/engine.h"
#include "core/kernel_options.h"
#include "core/slab_ring.h"
#include "grid/grid3.h"
#include "integrity/integrity.h"
#include "parallel/thread_team.h"
#include "simd/simd.h"
#include "stencil/stencil_kernels.h"
#include "telemetry/telemetry.h"

namespace s35::stencil {

template <typename S, typename T, typename Tag = simd::DefaultTag>
class StencilSlabKernel : public core::SlabRing<grid::Grid3<T>> {
  using Base = core::SlabRing<grid::Grid3<T>>;
  using V = simd::Vec<T, Tag>;
  static constexpr long R = S::radius;

 public:
  StencilSlabKernel(const S& stencil, const grid::Grid3<T>& src, grid::Grid3<T>& dst,
                    long dim_x, long dim_y, int dim_t, int planes_per_instance,
                    bool streaming_stores = false, core::KernelOptions opts = {},
                    integrity::IntegrityContext ictx = {})
      : Base(src, dst, dim_x, dim_y, dim_t, planes_per_instance, opts, ictx),
        stencil_(stencil),
        streaming_(streaming_stores) {
    S35_CHECK(dim_t >= 1 && planes_per_instance >= 2 * R + 1);
  }

  // ---- row-pair fusion hook set (see core::HasPairedRows) ----
  //
  // Armed by the deep-3.5D family. The pair path shares the two rows'
  // center-plane vector loads in registers (rows2_fast); it stays off under
  // integrity because the audit/injection hooks live on the single-row
  // path.
  void set_paired_rows(bool on) { paired_rows_ = on; }
  bool paired_rows() const {
    return paired_rows_ && this->opts_.fast_path && !this->ictx_.active();
  }

  // Updates rows y and y+1 of a compute step in one register-blocked pass;
  // bit-identical to two execute() calls (falls back to exactly that for
  // frozen-Y rows or kernels without a pair fast path).
  void execute_pair(const core::Tile& tile, const core::Step& step, long y, long x0,
                    long x1) {
    if constexpr (HasFastRowPair<S, V, RingAcc>) {
      if (y >= R && y + 1 < this->src_->ny() - R) {
        // Valid for dy in [-1, 2]: both paired rows are Y-interior, so y+2
        // stays inside the tile's load window.
        const RingAcc acc = ring_acc(tile, step, y);
        const T* frozen0 = acc(0, 0);
        const T* frozen1 = acc(0, 1);
        T* out0 = out_row(tile, step, y);
        T* out1 = out_row(tile, step, y + 1);
        // Leading/trailing cells inside the frozen X shell, both rows.
        const long xa = x0 > R ? x0 : R;
        const long xb = x1 < this->src_->nx() - R ? x1 : this->src_->nx() - R;
        if (x0 < xa) {
          const long e = xa < x1 ? xa : x1;
          Base::copy_span(frozen0, out0, x0, e);
          Base::copy_span(frozen1, out1, x0, e);
        }
        if (xb < x1) {
          const long b = xb > x0 ? xb : x0;
          Base::copy_span(frozen0, out0, b, x1);
          Base::copy_span(frozen1, out1, b, x1);
        }
        if (xa >= xb) return;
        RowFastOpts ropt;
        ropt.stream = streaming_ && step.to_external;
        ropt.pf_dist = this->opts_.prefetch_dist;
        if (this->opts_.prefetch) {
          if (y + 3 < tile.load.y.end) ropt.pf0 = acc(0, 3);
          if (y + 2 < tile.load.y.end) ropt.pf1 = acc(1, 2);
        }
        if (this->opts_.allow_fma) {
          stencil_.template rows2_fast<V, true>(acc, out0, out1, xa, xb, ropt);
        } else {
          stencil_.template rows2_fast<V, false>(acc, out0, out1, xa, xb, ropt);
        }
        if (ropt.stream) simd::stream_fence();
        telemetry::add_row_counts(parallel::current_tid(), 2, 0);
        return;
      }
    }
    execute(tile, step, y, x0, x1);
    execute(tile, step, y + 1, x0, x1);
  }

  void execute(const core::Tile& tile, const core::Step& step, long y, long x0, long x1) {
    switch (step.kind) {
      case core::StepKind::kLoad:
        this->load_row(tile, step, y, x0, x1);
        return;
      case core::StepKind::kCopy:
        this->copy_row(tile, step, y, x0, x1);
        return;
      case core::StepKind::kCompute:
        compute_span(tile, step, y, x0, x1);
        this->guard_store(step, y, x0, x1);
        return;
    }
  }

 private:
  // acc(dz, dy): row y + dy of instance t-1's ring plane z + dz, the
  // accessor shape every row kernel expects. The 2R+1 source planes' row-y
  // pointers are resolved once per row, so each access is one offset —
  // small enough to stay inlined in the row kernels' inner loops.
  struct RingAcc {
    const T* rows[2 * R + 1];
    long pitch;
    const T* operator()(int dz, int dy) const { return rows[dz + R] + dy * pitch; }
  };

  RingAcc ring_acc(const core::Tile& tile, const core::Step& step, long y) {
    RingAcc acc;
    for (long k = 0; k < 2 * R + 1; ++k)
      acc.rows[k] = this->buffer_row(tile, step.t - 1,
                                     step.src_slots[static_cast<std::size_t>(k)], 0, y);
    acc.pitch = this->row_pitch();
    return acc;
  }

  // Output row of a compute step: the next instance's ring slot, or the
  // output grid for the last instance.
  T* out_row(const core::Tile& tile, const core::Step& step, long y) {
    return step.to_external ? this->dst_->row(y, step.z)
                            : this->buffer_row(tile, step.t, step.dst_slot, 0, y);
  }

  void compute_span(const core::Tile& tile, const core::Step& step, long y, long x0,
                    long x1) {
    // src_slots holds planes z-R .. z+R; index R is the center plane.
    const RingAcc acc = ring_acc(tile, step, y);
    const T* frozen = acc(0, 0);
    T* out = out_row(tile, step, y);

    // Rows inside the frozen Y shell do not change in time.
    if (y < R || y >= this->src_->ny() - R) {
      Base::copy_span(frozen, out, x0, x1);
      return;
    }

    // Leading/trailing cells inside the frozen X shell.
    const long xa = x0 > R ? x0 : R;
    const long xb = x1 < this->src_->nx() - R ? x1 : this->src_->nx() - R;
    if (x0 < xa) Base::copy_span(frozen, out, x0, xa < x1 ? xa : x1);
    if (xb < x1) Base::copy_span(frozen, out, xb > x0 ? xb : x0, x1);
    if (xa >= xb) return;

    const core::KernelOptions& opts = this->opts_;
    const S row_stencil = for_row(stencil_, y, step.z);
    RowFastOpts ropt;
    ropt.stream = streaming_ && step.to_external;
    ropt.pf_dist = opts.prefetch_dist;
    if (opts.fast_path && opts.prefetch) {
      // Touch the ring-slot rows the next row's update will read: two rows
      // down in the center slot, one row down in the z+1 slot. Clamped to
      // the tile's load window so the pointers stay inside the buffer.
      if (y + 2 < tile.load.y.end) ropt.pf0 = acc(0, 2);
      if (y + 1 < tile.load.y.end) ropt.pf1 = acc(1, 1);
    }
    const bool fast = update_row_auto<V>(row_stencil, acc, out, xa, xb, opts.fast_path,
                                         opts.allow_fma, ropt);
    if (ropt.stream) {
      // Make the non-temporal stores globally visible before this thread
      // signals the round barrier.
      simd::stream_fence();
    }
    telemetry::add_row_counts(parallel::current_tid(), fast ? 1 : 0, fast ? 0 : 1);

    if (this->ictx_.active()) {
      this->maybe_wrong_row(out, xa, xb, step, y);
      if (this->audit_row(step, y)) audit_span(row_stencil, acc, out, xa, xb, step, y);
    }
  }

  // Re-runs the scalar reference (the generic update_row path evaluates
  // s.point per cell — same expression tree, no FMA) over the interior span
  // and compares: bit-exact without FMA, within the documented tolerance
  // with it (docs/PERFORMANCE.md).
  template <typename Acc>
  void audit_span(const S& s, const Acc& acc, const T* out, long xa, long xb,
                  const core::Step& step, long y) {
    const telemetry::ScopedPhase phase(parallel::current_tid(),
                                       telemetry::Phase::kAudit);
    for (long x = xa; x < xb; ++x) {
      const T ref = s.point(acc, x);
      if (integrity::audit_matches(out[x], ref, this->opts_.allow_fma)) continue;
      this->audit_result(step, y,
                         "audit mismatch at x=" + std::to_string(x) + ": fast=" +
                             std::to_string(static_cast<double>(out[x])) + " ref=" +
                             std::to_string(static_cast<double>(ref)));
      return;
    }
    this->audit_result(step, y, {});
  }

  S stencil_;
  bool streaming_;
  bool paired_rows_ = false;
};

}  // namespace s35::stencil
