// Section VII-A thread scaling: "Our resultant implementation scales
// near-linearly with the available cores, achieving a parallel scalability
// of around 3.6X on 4-cores."
//
// NOTE: this container exposes a single hardware core, so measured
// multi-thread numbers cannot speed up (they verify correctness of the
// threaded path, not scaling); the model column shows the paper-machine
// expectation. Run on a multicore host for measured scaling.
#include <cstdio>
#include <thread>

#include "bench_util.h"
#include "common/table.h"
#include "core/perf_model.h"
#include "core/planner.h"
#include "machine/kernel_sig.h"

using namespace s35;
using machine::Precision;

int main(int argc, char** argv) {
  std::puts("== Thread scaling, 3.5D 7-pt stencil (SP) ==");
  telemetry::JsonReporter reporter("scaling_cores", argc, argv);
  bench::want_records(reporter);
  const long n = env_int("S35_FULL", 0) ? 256 : 128;
  const int steps = 4;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::printf("grid %ld^3, hardware threads: %d\n\n", n, hw);

  const auto plan = core::plan(machine::core_i7(), machine::seven_point(),
                               Precision::kSingle, {.round_multiple = 8});
  stencil::SweepConfig cfg;
  cfg.dim_t = plan.dim_t;
  cfg.dim_x = std::min<long>(plan.dim_x, n);

  Table t({"threads", "measured Mupd/s", "measured speedup",
           "model speedup (compute-bound)"});
  double base = 0.0;
  for (int threads : {1, 2, 4}) {
    core::Engine35 engine(threads);
    const auto m = bench::measure_stencil7<float>(stencil::Variant::kBlocked35D, n,
                                                  steps, cfg, engine);
    if (threads == 1) base = m.mups;
    t.add_row({Table::fmt(threads, 0), Table::fmt(m.mups, 0),
               Table::fmt(m.mups / base, 2),
               Table::fmt(core::predicted_core_scaling(threads, false, 0.87), 2)});
    auto rec =
        bench::stencil_record<float>("stencil7", stencil::Variant::kBlocked35D,
                                     Precision::kSingle, n, steps, cfg, threads, m);
    rec.extra["speedup"] = m.mups / base;
    reporter.add(rec);
  }
  t.print();
  std::puts(
      "\npaper: ~3.6X on 4 cores; bandwidth-bound kernels do not scale (naive LBM).");
  if (hw <= 1)
    std::puts("(single-core container: measured speedups are expected to be ~1.0)");
  return 0;
}
