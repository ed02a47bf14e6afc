// Section VII-D: comparison with the best previously reported stencil
// implementations, including the paper's normalization arithmetic:
//
//   7-pt DP CPU : Datta [10] 1000 Mupd/s on a 2.66 GHz X5550 @16.5 GB/s
//                 -> normalized 1000 * 22/16.5 = 1333; ours 1995 -> 1.5X
//   LBM DP CPU  : Habich [13] 64 MLUPS on dual-socket 2.66 GHz Nehalem
//                 -> 64 * 0.5 * 3.2/2.66 = 38.5; ours ~80 -> 2.08X
//   7-pt SP GPU : best reported is bandwidth bound; ours 1.8X via 3.5D
//   7-pt DP GPU : Datta [11] ~4500 on GTX280; ours ~4600 (0.85-0.9X,
//                 spatial blocking only — temporal unnecessary for DP)
#include <cstdio>

#include "common/table.h"
#include "core/perf_model.h"
#include "gpumodel/gpu_model.h"

using namespace s35;
using machine::Precision;

int main() {
  std::puts("== Section VII-D: comparison with best reported numbers ==");

  Table t({"kernel", "prior best (normalized)", "this work (model)", "speedup",
           "paper claims"});

  {
    const double prior = 1000.0 * 22.0 / 16.5;  // Datta DP CPU, normalized
    const double ours =
        core::predict_stencil7_cpu(core::CpuScheme::kBlocked35D, Precision::kDouble).mups;
    t.add_row({"7-pt DP CPU", Table::fmt(prior, 0), Table::fmt(ours, 0),
               Table::fmt(ours / prior, 2), "1.5X (1995 vs 1333)"});
  }
  {
    const double prior =
        core::predict_stencil7_cpu(core::CpuScheme::kNaive, Precision::kSingle).mups;
    const double ours =
        core::predict_stencil7_cpu(core::CpuScheme::kBlocked35D, Precision::kSingle).mups;
    t.add_row({"7-pt SP CPU", Table::fmt(prior, 0), Table::fmt(ours, 0),
               Table::fmt(ours / prior, 2), "1.5X (~4000 vs bw-bound)"});
  }
  {
    const double prior = 64.0 * 0.5 * 3.2 / 2.66;  // Habich DP LBM, normalized
    const double ours =
        core::predict_lbm_cpu(core::CpuScheme::kBlocked35DIlp, Precision::kDouble).mups;
    t.add_row({"LBM DP CPU", Table::fmt(prior, 1), Table::fmt(ours, 1),
               Table::fmt(ours / prior, 2), "2.08X (80 vs 38.5 MLUPS)"});
  }
  {
    const double prior = core::predict_lbm_cpu(core::CpuScheme::kNaive,
                                               Precision::kSingle).mups;
    const double ours =
        core::predict_lbm_cpu(core::CpuScheme::kBlocked35DIlp, Precision::kSingle).mups;
    t.add_row({"LBM SP CPU", Table::fmt(prior, 0), Table::fmt(ours, 0),
               Table::fmt(ours / prior, 2), "2.1X (87 -> ~180)"});
  }
  {
    const double prior = gpumodel::predict_stencil7(
                             gpumodel::GpuScheme::kSpatialShared, Precision::kSingle)
                             .mups;
    const double ours =
        gpumodel::predict_stencil7(gpumodel::GpuScheme::kMultiUpdate, Precision::kSingle)
            .mups;
    t.add_row({"7-pt SP GPU", Table::fmt(prior, 0), Table::fmt(ours, 0),
               Table::fmt(ours / prior, 2), "1.8X (17115 vs bw-bound)"});
  }
  {
    const double prior = 4500.0;  // Datta GTX280 DP (compute bound)
    const double ours = gpumodel::predict_stencil7(
                            gpumodel::GpuScheme::kSpatialShared, Precision::kDouble)
                            .mups;
    t.add_row({"7-pt DP GPU", Table::fmt(prior, 0), Table::fmt(ours, 0),
               Table::fmt(ours / prior, 2), "0.85-0.9X (no temporal needed)"});
  }
  t.print();
  return 0;
}
