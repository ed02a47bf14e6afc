// Section IV-C, 27-point stencil: "The 27-point stencil has low bytes/op
// that is sufficient to make it compute bound on both architectures" and
// "spatial blocking techniques are sufficient to make 27-point stencil
// compute bound" — temporal blocking buys nothing and only adds ghost
// overhead. This bench verifies the classification and measures the
// variants.
#include <cstdio>

#include "bench_util.h"
#include "common/table.h"
#include "core/planner.h"
#include "machine/kernel_sig.h"

using namespace s35;
using machine::Precision;

namespace {

template <typename T>
double run27(stencil::Variant v, long n, int steps, const stencil::SweepConfig& cfg,
             core::Engine35& engine) {
  const auto stencil = stencil::default_stencil27<T>();
  grid::GridPair<T> pair(n, n, n);
  pair.src().fill_random(3, T(-1), T(1));
  const double secs = time_best_of(
      [&] { stencil::run_sweep(v, stencil, pair, steps, cfg, engine); },
      bench::bench_reps(), 0.05);
  return static_cast<double>(n) * n * n * steps / secs / 1e6;
}

}  // namespace

int main() {
  std::puts("== 27-point stencil: compute-bound without temporal blocking ==");

  const auto k = machine::twenty_seven_point();
  Table cls({"platform", "Gamma SP", "gamma 27pt SP", "classification"});
  for (const auto& d : {machine::core_i7(), machine::gtx285()}) {
    cls.add_row({d.name, Table::fmt(d.bytes_per_op(Precision::kSingle), 2),
                 Table::fmt(k.gamma(Precision::kSingle), 2),
                 k.gamma(Precision::kSingle) <= d.bytes_per_op(Precision::kSingle)
                     ? "compute-bound"
                     : "bandwidth-bound"});
  }
  cls.print();
  std::puts("paper: gamma = 0.14 SP / 0.28 DP — compute bound on both platforms.\n");

  const long n = env_int("S35_FULL", 0) ? 256 : 128;
  const int steps = 4;
  core::Engine35 engine(bench::bench_threads());
  std::printf("measured on host, %ld^3 (SP):\n", n);

  Table t({"variant", "Mupd/s", "expected"});
  t.add_row({"naive", Table::fmt(run27<float>(stencil::Variant::kNaive, n, steps, {},
                                              engine), 0),
             "already compute bound"});
  stencil::SweepConfig sp;
  sp.dim_x = std::min<long>(n, 128);
  t.add_row(
      {"2.5d spatial",
       Table::fmt(run27<float>(stencil::Variant::kSpatial25D, n, steps, sp, engine), 0),
       "~= naive"});
  stencil::SweepConfig b35;
  b35.dim_t = 2;
  b35.dim_x = std::min<long>(n, 96);
  t.add_row(
      {"3.5d dim_t=2",
       Table::fmt(run27<float>(stencil::Variant::kBlocked35D, n, steps, b35, engine), 0),
       "<= naive: ghost ops, no bw to win back"});
  t.print();
  return 0;
}
