// Reproduces every overestimation (κ) number the paper quotes:
//   Section V-A2: 3D blocking κ = 1.95X (R=10% of dim), 4.62X (R=20%)
//   Section V-A3: 2.5D κ = 1.2X, 1.77X for the same ratios
//   Section VI-A: 7-pt CPU 3.5D κ ≈ 1.02 (SP, dim 360), 1.04 (DP, 256);
//                 4D comparison overheads 1.18X SP / 1.21X DP
//   Section VI-B: LBM CPU 3.5D κ ≈ 1.21 (SP, 64), 1.34 (DP, 44);
//                 4D overheads 2.03X SP / 2.71X DP
//   Section VI-A GPU: κ ≈ 1.31 at dim_x = 32, dim_t = 2
#include <cstdio>

#include "common/table.h"
#include "core/planner.h"
#include "machine/kernel_sig.h"

int main() {
  using namespace s35;
  using namespace s35::core;
  using machine::Precision;

  std::puts("== Section V-A: ghost-layer overestimation, 3D vs 2.5D ==");
  // Same on-chip capacity for both: the 3D example blocks a 100^3 window
  // (C/E = 1e6 elements); 2.5D keeps only 2R+1 planes resident, so its
  // tiles grow to sqrt(1e6/(2R+1)) per side.
  Table a({"R", "3D dim", "kappa 3D", "2.5D dim", "kappa 2.5D", "reduction"});
  for (int r : {10, 20}) {
    const double k3 = kappa_3d(r, 100, 100, 100);
    const long d25 = max_dim_25d(1000000, 1, r);
    const double k25 = kappa_25d(r, d25, d25);
    a.add_row({Table::fmt(r, 0), "100", Table::fmt(k3, 2),
               Table::fmt(static_cast<double>(d25), 0), Table::fmt(k25, 2),
               Table::fmt(k3 / k25, 2)});
  }
  a.print();
  std::puts("paper: 1.95X/1.2X at 10%, 4.62X/1.77X at 20% (2.6X reduction)\n");

  std::puts("== Section VI: planned 3.5D parameters and kappa (C = 4 MB) ==");
  Table b({"Kernel", "Precision", "dim_t", "dim_x", "kappa 3.5D", "kappa 4D",
           "buffer KB"});
  const auto cpu = machine::core_i7();
  for (const auto& k : {machine::seven_point(), machine::lbm_d3q19()}) {
    for (Precision p : {Precision::kSingle, Precision::kDouble}) {
      const auto plan = core::plan(cpu, k, p, {.round_multiple = 4});
      // 4D comparison: cube blocks from half the budget (two buffers).
      const long edge = max_dim_3d(cpu.blocking_capacity_bytes / 2, k.elem_bytes(p));
      const double k4 = kappa_4d(k.radius, plan.dim_t, edge, edge, edge);
      b.add_row({k.name, machine::to_string(p), Table::fmt(plan.dim_t, 0),
                 Table::fmt(static_cast<double>(plan.dim_x), 0),
                 Table::fmt(plan.kappa, 2), Table::fmt(k4, 2),
                 Table::fmt(plan.buffer_bytes / 1024.0, 0)});
    }
  }
  b.print();
  std::puts(
      "paper: 7-pt 360/1.02 (SP), 256/1.04 (DP), 4D 1.18/1.21;\n"
      "       LBM 64/1.21 (SP), 44/1.34 (DP), 4D 2.03/2.71\n");

  std::puts("== Section VI-A GPU: register-file-sized 3.5D tiles ==");
  const long gpu_dim = 32;
  Table c({"dim_x", "dim_t", "kappa"});
  c.add_row({"32", "2", Table::fmt(kappa_35d(1, 2, gpu_dim, gpu_dim), 2)});
  c.print();
  std::puts("paper: kappa ~1.31X");
  return 0;
}
