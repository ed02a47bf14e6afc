// The Engine35 pass runner shared by the stencil and LBM sweeps and by the
// Z-slab distributed driver.
//
// A run of `steps` time steps is a sequence of passes of pass_t steps each.
// One tiling, one schedule and one kernel (and thus one ring-buffer
// allocation) serve every full pass; only a trailing partial pass rebuilds
// them. The runner bumps the integrity pass ordinal per pass and, in
// re-execute mode, owns the in-memory recovery rung: when the monitor
// reports a data-corrupting detection, the poisoned pass is replayed from
// the still-intact Jacobi source (a pass rewrites dst and every ring plane
// it reads, so the replay is bit-exact with a fault-free execution). One-
// shot injected faults are disarmed after firing, so the first replay comes
// out clean; sticky corruption survives every replay and, after
// options.max_reexec replays, surfaces as kSdcDetected — the caller's cue
// to climb to the checkpoint rung (core/distributed.h).
#pragma once

#include <string>

#include "common/check.h"
#include "core/engine.h"
#include "core/schedule.h"
#include "core/tiling.h"
#include "fault/status.h"
#include "integrity/integrity.h"
#include "telemetry/telemetry.h"

namespace s35::core {

// XY sub-plane and temporal depth of the passes one run executes.
struct PassShape {
  long dim_x = 0;
  long dim_y = 0;
  int pass_t = 1;
};

// Variant -> PassShape for the Engine35-based variants of a sweep Variant
// enum (stencil or LBM): kSpatial25D (when the enum has it) runs dim_t = 1
// passes over dim_x tiles, kTemporalOnly one whole-plane tile, kBlocked35D
// dim_x x dim_y tiles (dim_y defaults to dim_x).
template <typename Variant, typename Config>
PassShape engine_pass_shape(Variant v, long nx, long ny, const Config& cfg) {
  if constexpr (requires { Variant::kSpatial25D; }) {
    if (v == Variant::kSpatial25D) {
      const long dx = cfg.dim_x > 0 ? cfg.dim_x : nx;
      return {dx, cfg.dim_y > 0 ? cfg.dim_y : dx, 1};
    }
  }
  if (v == Variant::kTemporalOnly) return {nx, ny, cfg.dim_t};
  S35_CHECK_MSG(v == Variant::kBlocked35D, "not an Engine35 variant");
  S35_CHECK_MSG(cfg.dim_x > 0, "kBlocked35D needs dim_x");
  return {cfg.dim_x, cfg.dim_y > 0 ? cfg.dim_y : cfg.dim_x, cfg.dim_t};
}

// What the re-execution rung did: poisoned passes seen and replays run.
struct ReexecCounts {
  std::uint64_t detected = 0;
  std::uint64_t reexecs = 0;
};

// Advances `pair` by `steps` time steps in passes of shape.pass_t; result
// in pair.src(). `cfg` supplies serialized/family/dim_z (both sweep
// configs have them). make_kernel(shape, planes_per_instance, ictx) builds
// the kernel policy for one group of passes over pair.src() -> pair.dst();
// kernels with a row-pair fast path get it armed for the deep family.
// With `reexecute` false the integrity layer only detects (events land on
// the monitor); with it true a poisoned pass is replayed as described
// above, counted in `counts` when given.
template <typename Pair, typename Config, typename MakeKernel>
fault::Status run_passes(Engine35& engine, Pair& pair, int steps, long radius,
                         const PassShape& shape, const Config& cfg,
                         integrity::IntegrityContext ictx, bool reexecute,
                         MakeKernel&& make_kernel, ReexecCounts* counts = nullptr) {
  S35_CHECK(steps >= 0 && shape.pass_t >= 1);
  const long nx = pair.src().nx(), ny = pair.src().ny(), nz = pair.src().nz();

  auto run_one = [&](auto& kernel, const Tiling& tiling,
                     const TemporalSchedule& sched) -> fault::Status {
    for (int attempt = 0;; ++attempt) {
      kernel.rebind(pair.src(), pair.dst());
      kernel.set_integrity_pass(ictx.pass);
      if (attempt == 0) {
        engine.run_pass(kernel, tiling, sched);
      } else {
        const telemetry::ScopedPhase phase(0, telemetry::Phase::kRecovery);
        engine.run_pass(kernel, tiling, sched);
      }
      if (!reexecute || !ictx.active() || !ictx.monitor->poisoned())
        return fault::ok_status();
      if (counts != nullptr) ++counts->detected;
      if (attempt >= ictx.options.max_reexec)
        return fault::Status(fault::ErrorCode::kSdcDetected,
                             "SDC persisted after " +
                                 std::to_string(ictx.options.max_reexec) +
                                 " in-memory re-executions of pass " +
                                 std::to_string(ictx.pass));
      ictx.monitor->clear_poison();
      ictx.monitor->note_reexec();
      if (counts != nullptr) ++counts->reexecs;
    }
  };

  auto run_group = [&](int pass_t, int passes) -> fault::Status {
    const Tiling tiling(nx, ny, shape.dim_x, shape.dim_y, radius, pass_t);
    const TemporalSchedule sched(nz, radius, pass_t, cfg.serialized, cfg.family,
                                 cfg.dim_z);
    auto kernel = make_kernel(PassShape{shape.dim_x, shape.dim_y, pass_t},
                              sched.planes_per_instance(), ictx);
    if constexpr (requires { kernel.set_paired_rows(true); })
      kernel.set_paired_rows(cfg.family == ScheduleFamily::kDeep35D);
    for (int p = 0; p < passes; ++p) {
      if (fault::Status st = run_one(kernel, tiling, sched); !st.ok()) return st;
      pair.swap();
      ++ictx.pass;
    }
    return fault::ok_status();
  };

  if (steps >= shape.pass_t) {
    if (fault::Status st = run_group(shape.pass_t, steps / shape.pass_t); !st.ok())
      return st;
  }
  if (steps % shape.pass_t > 0) return run_group(steps % shape.pass_t, 1);
  return fault::ok_status();
}

}  // namespace s35::core
