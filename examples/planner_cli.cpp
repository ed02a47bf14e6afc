// Blocking-parameter planner CLI: the paper's "framework that determines
// the various blocking parameters — given the byte/op of the kernel, peak
// bytes/op of the architecture and the on-chip caches" (Section IX).
//
//   $ ./planner_cli                  # plan for presets + this host
//   $ ./planner_cli <bw_gbps> <sp_gops> <dp_gops> <cache_mb> [cores]
#include <cstdio>
#include <cstdlib>

#include "common/table.h"
#include "core/planner.h"
#include "machine/descriptor.h"
#include "machine/kernel_sig.h"

using namespace s35;
using machine::Precision;

namespace {

void plan_machine(const machine::Descriptor& d) {
  std::printf("\n== %s ==\n", d.name.c_str());
  std::printf("Gamma (bytes/op): SP %.3f, DP %.3f; blocking capacity %.1f MB\n",
              d.bytes_per_op(Precision::kSingle), d.bytes_per_op(Precision::kDouble),
              d.blocking_capacity_bytes / 1048576.0);

  Table t({"kernel", "prec", "gamma", "bound", "dim_t", "tile", "kappa",
           "buffer KB", "pred. Mupd/s", "vs naive"});
  for (const auto& k : {machine::seven_point(), machine::twenty_seven_point(),
                        machine::lbm_d3q19()}) {
    for (Precision p : {Precision::kSingle, Precision::kDouble}) {
      const auto plan = core::plan(d, k, p, {.round_multiple = 4});
      const bool bw_bound = k.gamma(p) > d.bytes_per_op(p);
      std::string tile = plan.feasible ? std::to_string(plan.dim_x) + "x" +
                                             std::to_string(plan.dim_y)
                                       : "infeasible";
      t.add_row({k.name, machine::to_string(p), Table::fmt(k.gamma(p), 2),
                 bw_bound ? "bandwidth" : "compute", Table::fmt(plan.dim_t, 0), tile,
                 plan.feasible ? Table::fmt(plan.kappa, 2) : "-",
                 Table::fmt(plan.buffer_bytes / 1024.0, 0),
                 plan.feasible ? Table::fmt(plan.predicted_mups, 0) : "-",
                 plan.feasible ? Table::fmt(plan.predicted_mups /
                                                plan.predicted_mups_no_blocking,
                                            2)
                               : "-"});
    }
  }
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 5) {
    machine::Descriptor d;
    d.name = "user machine";
    d.peak_bw_gbps = std::atof(argv[1]);
    d.achievable_bw_gbps = 0.78 * d.peak_bw_gbps;  // paper: 20-25% off peak
    d.peak_sp_gops = std::atof(argv[2]);
    d.peak_dp_gops = std::atof(argv[3]);
    d.effective_sp_gops = d.peak_sp_gops;
    d.effective_dp_gops = d.peak_dp_gops;
    d.llc_bytes = static_cast<std::size_t>(std::atof(argv[4]) * 1048576.0);
    d.blocking_capacity_bytes = d.llc_bytes / 2;
    d.cores = argc > 5 ? std::atoi(argv[5]) : 4;
    plan_machine(d);
    return 0;
  }

  plan_machine(machine::core_i7());
  plan_machine(machine::gtx285());
  plan_machine(machine::host());
  std::puts(
      "\nusage: planner_cli <peak_bw_gbps> <sp_gops> <dp_gops> <llc_mb> [cores]\n"
      "dim_t from eq. 3 (ceil(gamma/Gamma)); tile from eqs. 1+4; kappa from eq. 2.");
  return 0;
}
