// Datta-style empirical search vs the paper's analytic planner.
//
// The paper's framework derives (dim_x, dim_y, dim_t) from eqs. 1-4; its
// main comparator (Datta et al.) searches for them. This bench runs both:
// the tuner minimizes memsim-simulated external traffic (deterministic,
// machine-independent) over a candidate grid, and the planner's choice is
// evaluated under the same objective. The paper's implicit claim is that
// the analytic choice is near-optimal — the gap is printed.
#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/env.h"
#include "common/table.h"
#include "core/autotuner.h"
#include "core/planner.h"
#include "machine/kernel_sig.h"
#include "memsim/traffic.h"

using namespace s35;

int main() {
  std::puts("== Auto-tuning (traffic objective) vs analytic planner ==");
  const bool full = env_flag("S35_FULL");

  memsim::TraceConfig base;
  base.nx = base.ny = base.nz = full ? 128 : 96;
  base.steps = 4;
  base.elem_bytes = 4;
  base.radius = 1;
  base.streaming_stores = true;
  base.cache.size_bytes = full ? (8u << 20) : (1u << 20);

  const std::size_t budget = base.cache.size_bytes / 2;  // the paper's C
  const auto traffic = [&](const core::TuneCandidate& c) {
    const double buffer = 4.0 * c.dim_t * c.dim_x * c.dim_y * base.elem_bytes;
    if (buffer > static_cast<double>(budget))
      return std::numeric_limits<double>::infinity();
    auto cfg = base;
    cfg.dim_x = c.dim_x;
    cfg.dim_y = c.dim_y;
    cfg.dim_t = c.dim_t;
    return memsim::trace_stencil(memsim::Scheme::kBlocked35D, cfg).bytes_per_update();
  };

  const auto cands = core::make_candidates(16, base.nx, 4, 1);
  const auto result = core::autotune(cands, traffic);

  Table t({"dim_x", "dim_t", "B/update", "note"});
  // Show the best few and worst few samples.
  auto sorted = result.samples;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.cost < b.cost; });
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i >= 3 && i + 2 < sorted.size()) continue;
    t.add_row({Table::fmt(static_cast<double>(sorted[i].candidate.dim_x), 0),
               Table::fmt(sorted[i].candidate.dim_t, 0), Table::fmt(sorted[i].cost, 2),
               i == 0 ? "<- tuned best" : ""});
  }

  machine::Descriptor m = machine::core_i7();
  m.blocking_capacity_bytes = budget;
  // Two planner rows. Eq. 3 picks the *smallest* dim_t that reaches
  // compute-boundness (deeper blocking costs kappa ghost ops without
  // buying throughput), so its traffic is intentionally higher than the
  // traffic-optimal depth; at matched dim_t the tile-size choice (eq. 4)
  // should be near the tuned optimum.
  const auto plan_min = core::plan(m, machine::seven_point(), machine::Precision::kSingle,
                                   {.round_multiple = 8});
  const auto plan_matched =
      core::plan(m, machine::seven_point(), machine::Precision::kSingle,
                 {.round_multiple = 8, .force_dim_t = result.best.dim_t});
  for (const auto& [plan, label] :
       {std::pair{plan_min, "<- planner, dim_t from eq. 3"},
        std::pair{plan_matched, "<- planner @ tuned dim_t (eq. 4)"}}) {
    core::TuneCandidate planned{std::min(plan.dim_x, base.nx),
                                std::min(plan.dim_y, base.ny), plan.dim_t};
    t.add_row({Table::fmt(static_cast<double>(planned.dim_x), 0),
               Table::fmt(planned.dim_t, 0), Table::fmt(traffic(planned), 2), label});
  }
  t.print();

  {
    core::TuneCandidate planned{std::min(plan_matched.dim_x, base.nx),
                                std::min(plan_matched.dim_y, base.ny),
                                plan_matched.dim_t};
    std::printf(
        "\nat matched dim_t the planner's tile is within %.1f%% of the tuned optimum\n"
        "(%zu candidates tried); eq. 3 itself stops at the smallest dim_t that makes\n"
        "the kernel compute bound, trading traffic for fewer ghost ops.\n",
        100.0 * (traffic(planned) / result.best_cost - 1.0), result.samples.size());
  }
  std::puts(
      "paper context: Datta et al. search these parameters; Section V derives them.");
  return 0;
}
