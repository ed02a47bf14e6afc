// Heat diffusion: solve the 3D heat equation du/dt = alpha * laplacian(u)
// with an explicit 7-point scheme, accelerated with 3.5D blocking, and
// validate against the analytic solution for a spreading Gaussian.
//
// The 7-point stencil coefficients for the explicit Euler step are
//   u' = (1 - 6r) u + r * (sum of 6 face neighbors),  r = alpha dt / h^2,
// which is exactly the paper's B = alpha*A + beta*(neighbors) form with
// alpha = 1-6r, beta = r. Stability requires r <= 1/6.
//
//   $ ./heat_diffusion [grid_edge] [time_steps]
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/timer.h"
#include "core/planner.h"
#include "machine/descriptor.h"
#include "machine/kernel_sig.h"
#include "stencil/sweeps.h"

namespace {

// Analytic solution of the heat equation for a Gaussian initial condition
// of variance s0^2: a Gaussian of variance s0^2 + 2*alpha*t, amplitude
// scaled by (s0^2 / (s0^2 + 2 alpha t))^(3/2).
double gaussian(double r2, double var) { return std::exp(-r2 / (2.0 * var)); }

}  // namespace

int main(int argc, char** argv) {
  using namespace s35;

  const long n = argc > 1 ? std::atol(argv[1]) : 96;
  const int steps = argc > 2 ? std::atoi(argv[2]) : 60;

  const double r = 1.0 / 8.0;  // alpha*dt/h^2, inside the stability bound 1/6
  const auto stencil = stencil::Stencil7<double>{1.0 - 6.0 * r, r};

  // Gaussian blob in the center; sigma in units of grid spacing.
  const double sigma0 = static_cast<double>(n) / 16.0;
  const double var0 = sigma0 * sigma0;
  const double c = (n - 1) / 2.0;

  grid::GridPair<double> pair(n, n, n);
  pair.src().fill_with([&](long x, long y, long z) {
    const double r2 = (x - c) * (x - c) + (y - c) * (y - c) + (z - c) * (z - c);
    return gaussian(r2, var0);
  });

  // Plan the blocking for this machine and run.
  const auto mach = machine::host();
  const auto plan = core::plan(mach, machine::seven_point(),
                               machine::Precision::kDouble, {.round_multiple = 8});
  stencil::SweepConfig cfg;
  cfg.dim_t = plan.feasible ? plan.dim_t : 1;
  cfg.dim_x = plan.feasible ? std::min<long>(plan.dim_x, n) : n;
  core::Engine35 engine(mach.cores);

  std::printf(
      "heat equation on %ld^3, %d steps, r = %.3f (3.5D: dim_t=%d tile %ldx%ld)\n", n,
      steps, r, cfg.dim_t, cfg.dim_x, cfg.dim_x);
  Timer t;
  stencil::run_sweep(stencil::Variant::kBlocked35D, stencil, pair, steps, cfg, engine);
  std::printf("solved in %.3f s (%.1f Mupdates/s)\n", t.seconds(),
              double(n) * n * n * steps / t.seconds() / 1e6);

  // Validate against the analytic solution along the center line.
  // Effective alpha*t = r * steps (in units of h^2).
  const double var_t = var0 + 2.0 * r * steps;
  const double amplitude = std::pow(var0 / var_t, 1.5);
  double worst = 0.0;
  for (long x = n / 4; x < 3 * n / 4; ++x) {
    const double r2 = (x - c) * (x - c);
    const double expect = amplitude * gaussian(r2, var_t);
    const double got = pair.src().at(x, n / 2, n / 2);
    worst = std::max(worst, std::abs(got - expect));
  }
  std::printf("max |numeric - analytic| along center line: %.2e\n", worst);

  const bool ok = worst < 8e-3;
  std::printf("validation: %s (tolerance 8e-3; discretization error dominates)\n",
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
