// Kernel signatures: the per-point op and byte counts of Section IV.
//
// A kernel's bandwidth-to-compute ratio γ = bytes-per-update /
// ops-per-update (with perfect spatial reuse) is what the planner compares
// against the machine's Γ to size the temporal blocking factor dim_T
// (eq. 3). The constants below reproduce the paper's analysis exactly:
//
//   7-point:  16 ops (2 mul + 6 add + 7 load + 1 store); 8 B/pt SP,
//             16 B/pt DP  → γ = 0.5 SP / 1.0 DP
//   27-point: 58 ops (4 mul + 26 add + 27 load + 1 store); 8/16 B/pt
//             → γ = 0.14 SP / 0.28 DP
//   D3Q19 LBM: 259 ops (220 flop + 20 read + 19 write); 228 B/pt SP
//             (76 read + 152 write without streaming stores), 456 B/pt DP
//             → γ = 0.88 SP / 1.75 DP
#pragma once

#include <cstddef>
#include <string>

#include "machine/descriptor.h"

namespace s35::machine {

struct KernelSig {
  std::string name;
  int radius = 1;  // R: stencil extent (Manhattan for k-point, L-inf for LBM)

  double flops = 0.0;    // arithmetic ops per point update
  double mem_insts = 0.0;  // load/store instructions per point update

  // External-memory bytes per point update assuming perfect spatial reuse
  // (every input element loaded once, every output stored once).
  double bytes_sp = 0.0;
  double bytes_dp = 0.0;

  // Per-grid-point element size E used in the capacity constraint (eq. 1);
  // for LBM this is all 19 distributions plus the flag (4*20 = 80 B SP).
  std::size_t elem_bytes_sp = 0;
  std::size_t elem_bytes_dp = 0;

  double ops() const { return flops + mem_insts; }

  double bytes(Precision p) const {
    return p == Precision::kSingle ? bytes_sp : bytes_dp;
  }

  std::size_t elem_bytes(Precision p) const {
    return p == Precision::kSingle ? elem_bytes_sp : elem_bytes_dp;
  }

  // γ: bytes/op of the kernel after perfect spatial blocking.
  double gamma(Precision p) const { return bytes(p) / ops(); }

  // Bytes per update with NO blocking at all (each stencil input re-read
  // from memory); used by the no-blocking roofline baselines.
  double bytes_no_reuse_sp = 0.0;
  double bytes_no_reuse_dp = 0.0;
  double bytes_no_reuse(Precision p) const {
    return p == Precision::kSingle ? bytes_no_reuse_sp : bytes_no_reuse_dp;
  }
};

KernelSig seven_point();
KernelSig twenty_seven_point();
KernelSig lbm_d3q19();

// Variable-coefficient 7-point stencil: two extra time-invariant
// coefficient streams double the read traffic (16 B/pt SP with perfect
// reuse) and add two loads per point.
KernelSig seven_point_varcoef();

}  // namespace s35::machine
