// Section VIII (Discussion): the paper's three forward-looking claims,
// reproduced through the planner on hypothetical machine descriptors.
//
//   1. "Westmere has a lower Γ ... this trend will continue — requiring
//      larger temporal blocking ... and a proportionately larger cache."
//   2. "Future GPUs (Fermi) have a much larger cache than GTX 285, and
//      kernels like LBM SP should benefit" — but LBM "requires an order
//      of magnitude larger cache" than 16 KB for real gains.
//   3. "Fermi is expected to increase DP compute; 3.5D blocking would be
//      required for DP stencil kernels on GPU too."
#include <cmath>
#include <cstdio>

#include "common/table.h"
#include "core/planner.h"
#include "machine/descriptor.h"
#include "machine/kernel_sig.h"

using namespace s35;
using machine::Precision;

namespace {

machine::Descriptor scaled_cpu(const char* name, double compute_scale, double bw_scale,
                               double cache_scale) {
  machine::Descriptor d = machine::core_i7();
  d.name = name;
  d.peak_sp_gops *= compute_scale;
  d.peak_dp_gops *= compute_scale;
  d.effective_sp_gops = d.peak_sp_gops;
  d.effective_dp_gops = d.peak_dp_gops;
  d.peak_bw_gbps *= bw_scale;
  d.achievable_bw_gbps *= bw_scale;
  d.llc_bytes = static_cast<std::size_t>(d.llc_bytes * cache_scale);
  d.blocking_capacity_bytes = d.llc_bytes / 2;
  return d;
}

}  // namespace

int main() {
  std::puts("== Claim 1: falling Gamma needs deeper temporal blocking ==");
  Table t1({"machine", "Gamma SP", "7-pt dim_t", "LBM dim_t", "LBM tile", "kappa"});
  // Compute doubles each generation, bandwidth grows slower (x1.3),
  // cache grows with compute.
  for (int gen = 0; gen < 4; ++gen) {
    const double cs = std::pow(2.0, gen), bs = std::pow(1.3, gen),
                 hs = std::pow(2.0, gen);
    char name[32];
    std::snprintf(name, sizeof(name), "gen+%d", gen);
    const auto d = scaled_cpu(name, cs, bs, hs);
    const auto p7 = core::plan(d, machine::seven_point(), Precision::kSingle,
                               {.round_multiple = 4});
    const auto pl = core::plan(d, machine::lbm_d3q19(), Precision::kSingle,
                               {.round_multiple = 4});
    t1.add_row({name, Table::fmt(d.bytes_per_op(Precision::kSingle), 3),
                Table::fmt(p7.dim_t, 0), Table::fmt(pl.dim_t, 0),
                pl.feasible ? std::to_string(pl.dim_x) : std::string("infeasible"),
                pl.feasible ? Table::fmt(pl.kappa, 2) : "-"});
  }
  t1.print();
  std::puts(
      "expected: dim_t grows with the compute/bandwidth gap; the growing cache keeps\n"
      "the tiles large enough that kappa stays bounded (the paper's 'proportionately\n"
      "larger on-chip cache' requirement).\n");

  std::puts("== Claim 2: LBM SP blocking vs GPU on-chip capacity ==");
  Table t2({"on-chip capacity", "dim_t needed", "capacity-bound tile", "feasible",
            "bw reduction"});
  const auto lbm = machine::lbm_d3q19();
  for (const auto& [label, c] :
       {std::pair{"16 KB (GTX 285)", 16u << 10},
        std::pair{"48 KB (Fermi smem)", 48u << 10},
        std::pair{"768 KB (Fermi L2)", 768u << 10},
        std::pair{"4 MB (CPU-class)", 4u << 20}}) {
    machine::Descriptor g = machine::gtx285();
    g.blocking_capacity_bytes = c;
    const auto p = core::plan(g, lbm, Precision::kSingle, {.round_multiple = 1});
    t2.add_row({label, Table::fmt(p.dim_t, 0),
                std::to_string(p.dim_x),
                p.feasible ? "yes" : "no",
                p.feasible ? Table::fmt(p.dim_t / p.kappa, 2) : "-"});
  }
  t2.print();
  std::puts(
      "expected: infeasible at 16 KB (Section VI-B); still marginal at Fermi's 48 KB\n"
      "shared memory; an order of magnitude more (L2/CPU-class) is what makes the\n"
      "blocking pay — the paper's 'requires an order of magnitude larger cache'.\n");

  std::puts("== Claim 3: more GPU DP compute makes DP bandwidth bound ==");
  Table t3({"GPU", "DP Gops", "Gamma DP", "7-pt DP", "blocking needed"});
  for (const auto& [label, dp_scale] :
       {std::pair{"GTX 285", 1.0}, std::pair{"Fermi-class (4x DP)", 4.0},
        std::pair{"8x DP", 8.0}}) {
    machine::Descriptor g = machine::gtx285();
    g.peak_dp_gops *= dp_scale;
    g.effective_dp_gops = g.peak_dp_gops / 2.0;
    const double gamma = machine::seven_point().gamma(Precision::kDouble);
    const bool bound = gamma > g.bytes_per_op(Precision::kDouble);
    t3.add_row({label, Table::fmt(g.peak_dp_gops, 0),
                Table::fmt(g.bytes_per_op(Precision::kDouble), 2),
                bound ? "bandwidth-bound" : "compute-bound",
                bound ? "yes (3.5D)" : "no"});
  }
  t3.print();
  std::puts(
      "expected: at GTX 285 DP rates the 7-pt DP kernel is compute bound (no blocking\n"
      "needed, Section VII-A); scaling DP compute flips it bandwidth bound — 'we\n"
      "believe 3.5D blocking would be required for DP stencil kernels on GPU too'.");
  return 0;
}
