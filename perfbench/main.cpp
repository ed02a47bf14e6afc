// The repository benchmark: one binary, four workloads, every result
// checked bit-exact. See README.md in this directory for why each workload
// exists and which per-layer number should move which end-to-end number.
//
//   s35_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--tmp <dir>]
//
// Human-readable lines go to stdout, mismatches to stderr; the last stdout
// line is one JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
// metrics: half the measuring time runs untraced and half traced (the gap
// is the tracing overhead), then the layer ladder times each layer's
// public call on its own. Exit 0 = every check passed; 1 = a check failed
// (the JSON still prints, with "correct": false); 2 = bad arguments.
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/node.h"
#include "cluster/ring.h"
#include "cluster/router.h"
#include "cluster/tcp.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "core/engine.h"
#include "grid/checkpoint.h"
#include "harness.h"
#include "lbm/sweeps.h"
#include "machine/descriptor.h"
#include "machine/kernel_sig.h"
#include "parallel/barrier.h"
#include "parallel/thread_team.h"
#include "service/plan_cache.h"
#include "service/service.h"
#include "service/wire.h"
#include "stencil/sweeps.h"
#include "telemetry/telemetry.h"

using namespace s35;

namespace {

// Compute threads of every engine, service and node pool, sized for a
// 4-core host; the serve workloads also run this many closed-loop clients.
constexpr int kThreads = 4;
// Each run sets up this many times and reports the median set-up time.
constexpr int kSetups = 3;
// Steps per timed sweep and per job.
constexpr int kSteps = 8;
// Serve loops issue at least this many jobs so p95 has 10 samples beyond it.
constexpr long kMinJobs = 200;
// Closed-loop windows per serve set-up; mupds is the median window rate.
constexpr int kWindows = 4;

double seconds_since(std::int64_t t0) {
  return static_cast<double>(pb::now_ns() - t0) * 1e-9;
}

// ---------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
    std::printf("  %-26s %14.6g %s\n", name.c_str(), value, unit.c_str());
  }
};

void print_result_line(const pb::Tally& tally, const Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              tally.failed() == 0 ? "true" : "false", tally.attempted(), tally.failed());
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                r.metrics[i].name.c_str(), r.metrics[i].value, r.metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// Peak resident set of this process, plus the largest reaped child (the
// forked cluster nodes) when there is one.
double rss_peak_mb() {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(self.ru_maxrss + kids.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------ seeded grid inputs --

// Input value of one cell: a hash of (seed, index), uniform in [-1, 1). A
// hash instead of a sequential generator lets the team fill in parallel
// and keeps refills of 1.2 GB grids cheap between timed sweeps.
inline float cell_value(std::uint64_t seed, std::uint64_t index) {
  SplitMix64 h(seed ^ (index * 0xD1B54A32D192ED03ull));
  return static_cast<float>(h.uniform(-1.0, 1.0));
}

void fill_seeded(grid::Grid3<float>& g, std::uint64_t seed, parallel::ThreadTeam& team) {
  const long rows = g.ny() * g.nz();
  const int nt = team.size();
  team.run([&](int tid) {
    const auto [r0, r1] = parallel::chunk_range(rows, nt, tid);
    for (long r = r0; r < r1; ++r) {
      float* row = g.row(r % g.ny(), r / g.ny());
      const std::uint64_t base = static_cast<std::uint64_t>(r) * g.nx();
      for (long x = 0; x < g.nx(); ++x) row[x] = cell_value(seed, base + x);
    }
  });
}

// CRC32C over the logical grid, row by row: the fingerprint JobResult.crc
// and `s35 run` print.
std::uint32_t grid_crc(const grid::Grid3<float>& g) {
  std::uint32_t crc = 0;
  for (long z = 0; z < g.nz(); ++z)
    for (long y = 0; y < g.ny(); ++y)
      crc = crc32c(g.row(y, z), static_cast<std::size_t>(g.nx()) * sizeof(float), crc);
  return crc;
}

// Near-equilibrium LBM state: f_i = w_i (1 + 0.02 u), u from the cell hash.
void fill_lattice(lbm::Lattice<float>& lat, std::uint64_t seed,
                  parallel::ThreadTeam& team) {
  const long rows = lat.ny() * lat.nz();
  const int nt = team.size();
  team.run([&](int tid) {
    const auto [r0, r1] = parallel::chunk_range(rows, nt, tid);
    for (int i = 0; i < lbm::kQ; ++i) {
      const float w = lbm::weight<float>(i);
      for (long r = r0; r < r1; ++r) {
        float* row = lat.row(i, r % lat.ny(), r / lat.ny());
        const std::uint64_t base =
            (static_cast<std::uint64_t>(i) * rows + static_cast<std::uint64_t>(r)) *
            lat.nx();
        for (long x = 0; x < lat.nx(); ++x)
          row[x] = w * (1.0f + 0.02f * cell_value(seed, base + x));
      }
    }
  });
}

std::uint32_t lattice_crc(const lbm::Lattice<float>& lat) {
  std::uint32_t crc = 0;
  for (int i = 0; i < lbm::kQ; ++i)
    for (long z = 0; z < lat.nz(); ++z)
      for (long y = 0; y < lat.ny(); ++y)
        crc = crc32c(lat.row(i, y, z), static_cast<std::size_t>(lat.nx()) * sizeof(float),
                     crc);
  return crc;
}

// ================================================================ sweeps ==

// One timed sweep kind of a sweep workload: a 7-point SP stencil variant or
// an LBM D3Q19 SP variant, with its blocking parameters pinned.
struct SweepOp {
  std::string metric;  // e.g. "b35_mupds"
  bool lbm = false;
  stencil::Variant variant = stencil::Variant::kNaive;
  stencil::SweepConfig cfg;
  lbm::Variant lbm_variant = lbm::Variant::kNaive;
  lbm::SweepConfig lbm_cfg;
  int warm_steps = 1;  // one pass: enough to fault in every lazy buffer

  std::string describe() const {
    char buf[160];
    if (lbm) {
      std::snprintf(buf, sizeof(buf), "lbm %s dim_t %d tile %ldx%ld",
                    lbm::to_string(lbm_variant),
                    lbm_variant == lbm::Variant::kNaive ? 1 : lbm_cfg.dim_t,
                    lbm_cfg.dim_x, lbm_cfg.dim_y);
    } else {
      std::snprintf(buf, sizeof(buf), "%s dim_t %d tile %ldx%ld family %s",
                    stencil::to_string(variant),
                    variant == stencil::Variant::kNaive ? 1 : cfg.dim_t, cfg.dim_x,
                    cfg.dim_y, core::to_string(cfg.family));
    }
    return buf;
  }
};

SweepOp stencil_op(const char* metric, stencil::Variant v, int dim_t, long tile,
                   core::ScheduleFamily family = core::ScheduleFamily::kPaper35D) {
  SweepOp op;
  op.metric = metric;
  op.variant = v;
  op.cfg.dim_t = dim_t;
  op.cfg.dim_x = op.cfg.dim_y = tile;
  op.cfg.family = family;
  op.warm_steps = v == stencil::Variant::kNaive ? 1 : dim_t;
  return op;
}

SweepOp lbm_op(const char* metric, lbm::Variant v, int dim_t, long tile) {
  SweepOp op;
  op.metric = metric;
  op.lbm = true;
  op.lbm_variant = v;
  op.lbm_cfg.dim_t = dim_t;
  op.lbm_cfg.dim_x = op.lbm_cfg.dim_y = tile;
  op.warm_steps = v == lbm::Variant::kNaive ? 1 : dim_t;
  return op;
}

struct SweepWorkload {
  long n = 0;       // 7-point grid edge
  long lbm_n = 0;   // LBM lattice edge; 0 = no LBM ops
  std::vector<SweepOp> ops;
};

// sweep-dram: a 672^3 SP grid is 1.21 GB per array, >= 4x the 300 MB L3,
// so every sweep streams from DRAM. This is the paper's regime, the only
// one where temporal blocking can win wall clock. Naive never enters
// Engine35 (sweep_step_naive), so an engine change must leave its
// per-variant rate flat here. Tiles span the whole plane: on a 300 MB L3
// the rings of a full 672^2 plane fit, and smaller tiles measured slower.
SweepWorkload sweep_dram() {
  SweepWorkload w;
  w.n = 672;
  w.ops = {stencil_op("naive_mupds", stencil::Variant::kNaive, 1, 0),
           stencil_op("b35_mupds", stencil::Variant::kBlocked35D, 2, 672),
           stencil_op("deep_mupds", stencil::Variant::kBlocked35D, 4, 672,
                      core::ScheduleFamily::kDeep35D)};
  return w;
}

// sweep-l3: a 256^3 SP pair (128 MB) and a 96^3 D3Q19 pair (2 x 67 MB)
// fit in L3, so the row kernel and per-step engine overhead dominate, not
// DRAM. It also drives the separate src/lbm sweep tree.
SweepWorkload sweep_l3() {
  SweepWorkload w;
  w.n = 256;
  w.lbm_n = 96;
  w.ops = {stencil_op("naive_mupds", stencil::Variant::kNaive, 1, 0),
           stencil_op("b25_mupds", stencil::Variant::kSpatial25D, 1, 256),
           stencil_op("b35_mupds", stencil::Variant::kBlocked35D, 2, 256),
           stencil_op("deep_mupds", stencil::Variant::kBlocked35D, 4, 256,
                      core::ScheduleFamily::kDeep35D),
           lbm_op("lbm_naive_mupds", lbm::Variant::kNaive, 1, 0),
           lbm_op("lbm_b35_mupds", lbm::Variant::kBlocked35D, 2, 96)};
  return w;
}

// Everything one sweep workload allocates; destroyed between set-ups.
struct SweepState {
  std::unique_ptr<core::Engine35> engine;
  std::unique_ptr<grid::GridPair<float>> pair;
  std::unique_ptr<lbm::Geometry> geom;
  std::unique_ptr<lbm::LatticePair<float>> lattice;
  lbm::BgkParams<float> prm;
};

// Loads the seeded input of `op` into its grids (untimed before each sweep).
void load_input(SweepState& s, const SweepOp& op, std::uint64_t seed) {
  if (op.lbm) {
    fill_lattice(s.lattice->src(), seed, s.engine->team());
    fill_lattice(s.lattice->dst(), seed, s.engine->team());
  } else {
    fill_seeded(s.pair->src(), seed, s.engine->team());
    stencil::freeze_boundary(s.pair->src(), s.pair->dst(), 1);
  }
}

void run_op(SweepState& s, const SweepOp& op, int steps) {
  if (op.lbm) {
    lbm::run_lbm_auto(op.lbm_variant, *s.geom, s.prm, *s.lattice, steps, op.lbm_cfg,
                      *s.engine);
  } else {
    stencil::run_sweep_auto(op.variant, stencil::default_stencil7<float>(), *s.pair,
                            steps, op.cfg, *s.engine);
  }
}

std::uint32_t op_crc(const SweepState& s, const SweepOp& op) {
  return op.lbm ? lattice_crc(s.lattice->src()) : grid_crc(s.pair->src());
}

double op_updates(const SweepWorkload& w, const SweepOp& op) {
  const double n = static_cast<double>(op.lbm ? w.lbm_n : w.n);
  return n * n * n * kSteps;
}

// Set-up: engine team, grids with first touch, seeded input, and one
// untimed warm-up pass per variant (the first sweep after allocation reads
// up to 4x slow).
SweepState setup_sweeps(const SweepWorkload& w, std::uint64_t seed) {
  SweepState s;
  s.engine = std::make_unique<core::Engine35>(kThreads);
  s.pair = std::make_unique<grid::GridPair<float>>(w.n, w.n, w.n, s.engine->team());
  if (w.lbm_n > 0) {
    s.geom = std::make_unique<lbm::Geometry>(w.lbm_n, w.lbm_n, w.lbm_n);
    s.geom->set_box_walls();
    s.geom->set_lid();
    s.geom->finalize();
    s.lattice = std::make_unique<lbm::LatticePair<float>>(w.lbm_n, w.lbm_n, w.lbm_n);
    s.prm.omega = 1.2f;
    s.prm.u_wall[0] = 0.05f;
  }
  for (const SweepOp& op : w.ops) {
    load_input(s, op, seed);
    run_op(s, op, op.warm_steps);
  }
  return s;
}

struct SweepSamples {
  std::map<std::string, std::vector<double>> seconds;  // per op metric
  std::vector<double> round_mupds;  // each round's updates / sweep time
};

// Whole rounds (every op once, fixed order), appended to `out`: at least
// one, and another only while it is expected to end within `seconds` (a
// 672^3 round takes ~4 s, so overshooting would stretch the run). Each op
// loads the same seeded input, so its CRC must equal the naive reference
// of its grid kind.
void sweep_loop(const SweepWorkload& w, SweepState& s, std::uint64_t seed, double seconds,
                const std::map<bool, std::uint32_t>& want, pb::Tally& tally,
                pb::Tracer& tracer, SweepSamples& out) {
  const std::int64_t t0 = pb::now_ns();
  long round = 0;
  double round_wall = 0.0;
  do {
    const std::int64_t r0 = pb::now_ns();
    double updates = 0.0, timed_s = 0.0;
    const int rs = tracer.begin("sweep.round");
    for (const SweepOp& op : w.ops) {
      const int os = tracer.begin("sweep.op", rs, static_cast<std::uint64_t>(round));
      int sp = tracer.begin("grid.fill", os);
      load_input(s, op, seed);
      tracer.end(sp);
      sp = tracer.begin(op.lbm ? "lbm.run_lbm_auto" : "stencil.run_sweep_auto", os);
      const std::int64_t a = pb::now_ns();
      run_op(s, op, kSteps);
      const double dt = seconds_since(a);
      tracer.end(sp);
      sp = tracer.begin("check.crc", os);
      const std::uint32_t crc = op_crc(s, op);
      tracer.end(sp);
      tracer.end(os);
      char why[160];
      std::snprintf(why, sizeof(why), "%s round %ld: crc %08x, naive reference %08x",
                    op.metric.c_str(), round, crc, want.at(op.lbm));
      tally.check(crc == want.at(op.lbm), why);
      out.seconds[op.metric].push_back(dt);
      updates += op_updates(w, op);
      timed_s += dt;
    }
    tracer.end(rs);
    out.round_mupds.push_back(updates / timed_s / 1e6);
    round_wall = seconds_since(r0);
    ++round;
  } while (seconds_since(t0) + round_wall <= seconds);
}

// ================================================================= serve ==

// One serve job shape; the mix draws uniformly from these four.
struct Shape {
  const char* kernel;
  long n;
};
constexpr Shape kShapes[] = {{"7pt", 32}, {"7pt", 48}, {"7pt", 64}, {"27pt", 40}};
constexpr int kSeedPool = 16;  // distinct input seeds per run

machine::KernelSig sig_of(const std::string& kernel) {
  return kernel == "27pt" ? machine::twenty_seven_point() : machine::seven_point();
}

// The seeded job stream: job j's shape and input seed depend only on (run
// seed, j), so the sequence is the same whichever client submits it.
struct JobMix {
  std::uint64_t seed = 0;
  std::vector<std::uint64_t> input_seeds;
  std::vector<Shape> shapes;

  JobMix(std::uint64_t run_seed, std::vector<Shape> shape_set)
      : seed(run_seed), shapes(std::move(shape_set)) {
    SplitMix64 rng(run_seed ^ 0x5EEDF00Dull);
    for (int i = 0; i < kSeedPool; ++i) input_seeds.push_back(rng.next_u64() >> 16);
  }

  service::JobSpec spec(long j) const {
    SplitMix64 rng(seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(j));
    const Shape& sh = shapes[rng.below(shapes.size())];
    service::JobSpec s;
    s.kernel = sh.kernel;
    s.nx = sh.n;
    s.steps = kSteps;
    s.seed = input_seeds[rng.below(input_seeds.size())];
    return s;
  }
};

struct JobSample {
  service::JobSpec spec;
  std::uint64_t id = 0;
  double latency_s = 0.0;
  service::JobState state = service::JobState::kQueued;
  service::JobResult result;
};

double job_updates(const service::JobSpec& s) {
  return static_cast<double>(s.nx) * s.eff_ny() * s.eff_nz() * s.steps;
}

struct ServeRun {
  std::vector<JobSample> jobs;
  double wall_s = 0.0;
  std::vector<double> window_mupds;  // completed updates / wall, per loop
};

// Closed loop of kThreads clients over `backend`. Traced: one span per job
// (submit to terminal) with the JobResult phases as child spans, laid end
// to end from the submit time.
ServeRun serve_loop(service::JobBackend& backend, const JobMix& mix, double seconds,
                    long min_jobs, pb::Tally& tally, pb::Tracer& tracer) {
  ServeRun out;
  std::mutex mu;
  struct Handle {
    std::uint64_t id;
    std::int64_t t0;
  };
  pb::LoopSpec<Handle> spec;
  spec.clients = kThreads;
  spec.seconds = seconds;
  spec.min_jobs = min_jobs;
  spec.submit = [&](long j) -> std::optional<Handle> {
    const std::int64_t t0 = pb::now_ns();
    const auto id = backend.submit(mix.spec(j));
    if (!id.ok()) {
      tally.attempt();
      tally.fail("job " + std::to_string(j) + " rejected: " + id.status().message());
      return std::nullopt;
    }
    return Handle{id.value(), t0};
  };
  spec.wait = [&](long j, const Handle& h) {
    const auto info = backend.wait(h.id, 120'000);
    const std::int64_t t1 = pb::now_ns();
    JobSample s;
    s.spec = mix.spec(j);
    s.id = h.id;
    s.latency_s = static_cast<double>(t1 - h.t0) * 1e-9;
    if (info) {
      s.state = info->state;
      s.result = info->result;
    }
    if (tracer.enabled()) {
      const int js = tracer.add("client.job", h.t0, t1, -1, h.id);
      std::int64_t at = h.t0;
      const std::pair<const char*, double> phases[] = {{"service.wait", s.result.wait_s},
                                                       {"service.plan", s.result.plan_s},
                                                       {"service.run", s.result.run_s}};
      for (const auto& [name, sec] : phases) {
        const std::int64_t len = static_cast<std::int64_t>(sec * 1e9);
        tracer.add(name, at, at + len, js, h.id);
        at += len;
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    out.jobs.push_back(std::move(s));
  };
  out.wall_s = pb::closed_loop(spec);
  double upd = 0.0;
  for (const JobSample& s : out.jobs)
    if (s.state == service::JobState::kDone) upd += job_updates(s.spec);
  out.window_mupds.push_back(upd / out.wall_s / 1e6);
  return out;
}

// A job's seeded input, loaded the way JobService loads it.
void load_job_input(const service::JobSpec& spec, grid::GridPair<float>& pair) {
  pair.src().fill_random(spec.seed, -1.0f, 1.0f);
  stencil::freeze_boundary(pair.src(), pair.dst(), sig_of(spec.kernel).radius);
}

// The job's sweep run directly, without the service.
void run_job_direct(const service::JobSpec& spec, stencil::Variant v,
                    const stencil::SweepConfig& cfg, grid::GridPair<float>& pair,
                    core::Engine35& engine) {
  if (spec.kernel == "27pt") {
    stencil::run_sweep_auto(v, stencil::default_stencil27<float>(), pair, spec.steps, cfg,
                            engine);
  } else {
    stencil::run_sweep_auto(v, stencil::default_stencil7<float>(), pair, spec.steps, cfg,
                            engine);
  }
}

// Direct reference for every (shape, input seed) the loop ran: a naive
// run_sweep_auto on the same seeded input, CRC as the service computes it.
// Then every job must be kDone with that CRC.
void check_jobs(const ServeRun& run, pb::Tally& tally) {
  core::Engine35 engine(kThreads);
  std::map<std::tuple<std::string, long, std::uint64_t>, std::uint32_t> want;
  for (const JobSample& s : run.jobs) {
    const auto key = std::make_tuple(s.spec.kernel, s.spec.nx, s.spec.seed);
    auto it = want.find(key);
    if (it == want.end()) {
      grid::GridPair<float> pair(s.spec.nx, s.spec.nx, s.spec.nx, engine.team());
      load_job_input(s.spec, pair);
      run_job_direct(s.spec, stencil::Variant::kNaive, {}, pair, engine);
      it = want.emplace(key, grid_crc(pair.src())).first;
    }
    char why[200];
    std::snprintf(why, sizeof(why),
                  "job %llu (%s %ld^3 seed %llu): state %s crc %08x, direct %08x",
                  static_cast<unsigned long long>(s.id), s.spec.kernel.c_str(), s.spec.nx,
                  static_cast<unsigned long long>(s.spec.seed),
                  service::to_string(s.state), s.result.crc, it->second);
    tally.check(s.state == service::JobState::kDone && s.result.crc == it->second, why);
  }
}

void print_latency(const ServeRun& run) {
  std::vector<double> lat;
  for (const JobSample& s : run.jobs) lat.push_back(s.latency_s * 1e3);
  std::printf("  jobs %zu in %.3f s: jobs_per_s %.6g\n", lat.size(), run.wall_s,
              static_cast<double>(lat.size()) / run.wall_s);
  std::printf("  job_p50_ms %.6g (n=%zu)\n", pb::median(lat), lat.size());
  if (const auto p95 = pb::percentile(lat, 0.95)) {
    std::printf("  job_p95_ms %.6g (n=%zu)\n", *p95, lat.size());
  } else {
    std::printf("  job_p95_ms refused: %zu samples leave < %zu beyond p95\n", lat.size(),
                pb::kMinTail);
  }
  if (const auto q = pb::highest_tail_quantile(lat.size()))
    std::printf("  highest supported tail: p%g = %.6g ms\n", *q * 100,
                *pb::percentile(lat, *q));
}

// A node process of the routed workload.
struct NodeProc {
  pid_t pid = -1;
  std::string address;
};

// Node pids, for the watchdog's last-resort cleanup.
pid_t g_node_pids[8] = {};
volatile sig_atomic_t g_node_count = 0;

// Binds two node listeners whose consistent-hash ring places shape i on
// node i % 2 (up to relabeling): the 4-shape mix splits {32^3, 64^3} |
// {48^3, 27pt 40^3}. Ring placement hashes the listener's random port, so
// without this each run would split the mix differently and the routed
// numbers would mostly measure which split it drew.
std::vector<std::pair<int, std::string>> bind_balanced(const std::vector<Shape>& shapes) {
  for (int attempt = 0; attempt < 500; ++attempt) {
    std::vector<std::pair<int, std::string>> out;
    cluster::HashRing ring(cluster::RouterOptions{}.vnodes);
    for (int i = 0; i < 2; ++i) {
      int port = 0;
      const int fd = cluster::tcp_listen("127.0.0.1", 0, &port);
      S35_CHECK_MSG(fd >= 0, "could not bind a node listener");
      out.push_back({fd, "127.0.0.1:" + std::to_string(port)});
      ring.add(out.back().second);
    }
    const auto owner = [&](std::size_t i) {
      service::JobSpec spec;
      spec.kernel = shapes[i].kernel;
      spec.nx = shapes[i].n;
      return ring.owner(spec.shape_key());
    };
    bool balanced = true;
    for (std::size_t i = 0; i < shapes.size(); ++i)
      for (std::size_t j = 0; j < i; ++j)
        balanced = balanced && ((owner(i) == owner(j)) == (i % 2 == j % 2));
    if (balanced) return out;
    for (const auto& [fd, addr] : out) ::close(fd);
  }
  S35_CHECK_MSG(false, "no balanced node placement found");
  return {};
}

std::vector<NodeProc> fork_nodes(const std::vector<Shape>& shapes,
                                 const machine::Descriptor& mach) {
  std::vector<NodeProc> out;
  const auto bound = bind_balanced(shapes);
  for (const auto& [fd, address] : bound) {
    cluster::NodeOptions nopt;
    nopt.name = address;
    nopt.beat_ms = 20;
    nopt.window = 2;
    nopt.service.threads = kThreads / static_cast<int>(bound.size());
    nopt.service.mach = mach;
    std::fflush(stdout);
    NodeProc p;
    p.address = address;
    p.pid = ::fork();
    if (p.pid == 0) {
      static std::atomic<bool> never{false};
      ::_exit(cluster::serve_node(fd, nopt, &never));
    }
    ::close(fd);
    S35_CHECK_MSG(p.pid > 0, "fork failed");
    if (g_node_count < 8) {
      g_node_pids[g_node_count] = p.pid;
      g_node_count = g_node_count + 1;
    }
    out.push_back(p);
  }
  return out;
}

void reap_nodes(std::vector<NodeProc>& nodes) {
  for (NodeProc& p : nodes) {
    ::kill(p.pid, SIGKILL);
    int st = 0;
    ::waitpid(p.pid, &st, 0);
    for (int i = 0; i < g_node_count; ++i)
      if (g_node_pids[i] == p.pid) g_node_pids[i] = 0;
  }
  nodes.clear();
}

// A router over two freshly forked nodes (kThreads / 2 threads each); owns
// both and tears down in order. Fork only from a single-threaded parent.
struct Cluster {
  std::vector<NodeProc> nodes;
  std::unique_ptr<cluster::Router> router;
  std::string ckpt_dir;

  Cluster(const machine::Descriptor& mach, const std::vector<Shape>& shapes,
          const std::string& dir)
      : ckpt_dir(dir) {
    std::filesystem::create_directories(ckpt_dir);
    nodes = fork_nodes(shapes, mach);
    cluster::RouterOptions ro;
    for (const NodeProc& p : nodes) ro.nodes.push_back(p.address);
    ro.beat_ms = 20;
    ro.hang_ms = 10'000;
    ro.connect_timeout_ms = 2'000;
    ro.window = 2;
    ro.checkpoint_dir = ckpt_dir;  // checkpoint_every stays the default, 1
    router = std::make_unique<cluster::Router>(ro);
  }
  ~Cluster() {
    if (router) router->shutdown();
    router.reset();
    reap_nodes(nodes);
    std::error_code ec;
    std::filesystem::remove_all(ckpt_dir, ec);
  }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
};

// Submits one job of every shape and waits for each: cold plan tunes on
// the owning node (or in the service), grid-pool warm-up. Untimed, but a
// job that fails here fails the run.
void warm_shapes(service::JobBackend& backend, const JobMix& mix, pb::Tally& tally) {
  for (std::size_t i = 0; i < mix.shapes.size(); ++i) {
    service::JobSpec s;
    s.kernel = mix.shapes[i].kernel;
    s.nx = mix.shapes[i].n;
    s.steps = kSteps;
    s.seed = mix.input_seeds[0];
    const auto id = backend.submit(s);
    const auto info = id.ok() ? backend.wait(id.value(), 120'000) : std::nullopt;
    if (!info || info->state != service::JobState::kDone) {
      tally.attempt();
      tally.fail(std::string("warm-up job ") + s.kernel + " " + std::to_string(s.nx) +
                 "^3 did not complete");
    }
  }
}

// Terminal conservation on the router with no deaths and no failovers.
void check_router(const cluster::Router& router, pb::Tally& tally) {
  const service::ServiceStats st = router.stats();
  const std::uint64_t terminal = st.completed + st.failed + st.cancelled + st.expired;
  char why[200];
  std::snprintf(why, sizeof(why),
                "router: submitted %llu, terminal %llu, failed %llu, deaths %llu, "
                "failovers %llu",
                static_cast<unsigned long long>(st.submitted),
                static_cast<unsigned long long>(terminal),
                static_cast<unsigned long long>(st.failed),
                static_cast<unsigned long long>(st.worker_deaths),
                static_cast<unsigned long long>(st.failovers));
  std::printf("  route.deaths %llu, route.failovers %llu (must be 0)\n",
              static_cast<unsigned long long>(st.worker_deaths),
              static_cast<unsigned long long>(st.failovers));
  tally.check(st.submitted == terminal && st.failed == 0 && st.worker_deaths == 0 &&
                  st.failovers == 0,
              why);
}

// Per-layer numbers of a serve loop: the JobResult phases, the client time
// outside them (service.overhead_ms in-process, route.hop_ms routed), plan
// cache hits, batching and checkpoints.
struct ServeLayers {
  double wait_ms, plan_ms, run_ms, outside_ms, batched_ratio, hit_ratio, ckpts_per_job;
};

ServeLayers serve_layers(const ServeRun& run) {
  std::vector<double> wait, plan, runv, outside;
  double batched = 0, hits = 0, ckpts = 0;
  for (const JobSample& s : run.jobs) {
    const service::JobResult& r = s.result;
    wait.push_back(r.wait_s * 1e3);
    plan.push_back(r.plan_s * 1e3);
    runv.push_back(r.run_s * 1e3);
    outside.push_back((s.latency_s - r.wait_s - r.plan_s - r.run_s) * 1e3);
    batched += r.batched;
    hits += r.plan_cache_hit;
    ckpts += r.checkpoints;
  }
  const double n = std::max<double>(1.0, static_cast<double>(run.jobs.size()));
  return {pb::median(wait), pb::median(plan), pb::median(runv), pb::median(outside),
          batched / n, hits / n, ckpts / n};
}

// run_s over a direct blocked sweep of the same shape and plan, median
// over jobs (the service's own chunking, pooling and bookkeeping cost).
double run_vs_direct(const ServeRun& run) {
  core::Engine35 engine(kThreads);
  std::map<std::string, double> direct;
  std::vector<double> ratios;
  for (const JobSample& s : run.jobs) {
    const service::JobResult& r = s.result;
    core::ScheduleFamily fam = core::ScheduleFamily::kPaper35D;
    core::parse_schedule_family(r.schedule_family, &fam);
    const std::string key = s.spec.kernel + "/" + std::to_string(s.spec.nx) + "/" +
                            std::to_string(r.dim_x) + "/" + std::to_string(r.dim_t) +
                            "/" + r.schedule_family;
    auto it = direct.find(key);
    if (it == direct.end()) {
      grid::GridPair<float> pair(s.spec.nx, s.spec.nx, s.spec.nx, engine.team());
      stencil::SweepConfig cfg;
      cfg.dim_x = r.dim_x;
      cfg.dim_y = r.dim_y;
      cfg.dim_t = r.dim_t;
      cfg.family = fam;
      std::vector<double> t;
      for (int rep = 0; rep < 7; ++rep) {
        load_job_input(s.spec, pair);
        const std::int64_t a = pb::now_ns();
        run_job_direct(s.spec, stencil::Variant::kBlocked35D, cfg, pair, engine);
        t.push_back(seconds_since(a));
      }
      it = direct.emplace(key, pb::median(t)).first;
    }
    if (it->second > 0) ratios.push_back(r.run_s / it->second);
  }
  return pb::median(ratios);
}

// ================================================================ ladder ==

// The layer ladder of the traced run: each layer's public call timed on
// its own at a fixed size, so a per-layer number can be read against the
// end-to-end ones. Service and route numbers come from the workload's own
// loop when it has one, else from a short loop here.
struct Ladder {
  pb::Tracer& tracer;
  int root;
  Report& report;

  template <typename Fn>
  void step(const char* name, Fn&& fn) {
    const int s = tracer.begin(name, root);
    fn();
    tracer.end(s);
  }
};

double row_mupds() {
  const long n = 512;
  grid::Grid3<float> g(n, 3, 3);
  parallel::ThreadTeam one(1);
  fill_seeded(g, 1, one);
  grid::Grid3<float> out(n, 1, 1);
  const auto st = stencil::default_stencil7<float>();
  std::vector<double> t;
  simd::dispatch(simd::dispatch_isa(), [&](auto tag) {
    using V = simd::Vec<float, decltype(tag)>;
    const auto acc = [&](int dz, int dy) -> const float* {
      return g.row(1 + dy, 1 + dz);
    };
    const stencil::RowFastOpts opt;
    for (int rep = 0; rep < 9; ++rep) {
      const std::int64_t a = pb::now_ns();
      for (int i = 0; i < 4096; ++i)
        stencil::update_row_auto<V>(st, acc, out.row(0, 0), 1, n - 1, true, false, opt);
      t.push_back(seconds_since(a));
    }
  });
  return 4096.0 * (n - 2) / pb::median(t) / 1e6;
}

void run_ladder(Ladder& L, const machine::Descriptor& mach, const std::string& tmp,
                std::uint64_t seed, pb::Tally& tally, const ServeRun* own_serve,
                const ServeRun* own_route) {
  Report& R = L.report;
  L.step("ladder.row", [&] { R.add("row.mupds", row_mupds(), "Mupd/s"); });

  L.step("ladder.team", [&] {
    parallel::ThreadTeam team(kThreads);
    std::vector<double> t;
    for (int rep = 0; rep < 9; ++rep) {
      const std::int64_t a = pb::now_ns();
      for (int i = 0; i < 500; ++i) team.run([](int) {});
      t.push_back(seconds_since(a) / 500);
    }
    R.add("team.fork_join_us", pb::median(t) * 1e6, "us");

    auto barrier = parallel::make_barrier(parallel::BarrierKind::kSpin, kThreads);
    std::vector<double> b;
    for (int rep = 0; rep < 9; ++rep) {
      const std::int64_t a = pb::now_ns();
      team.run([&](int tid) {
        for (int i = 0; i < 5000; ++i) barrier->arrive_and_wait(tid);
      });
      b.push_back(seconds_since(a) / 5000);
    }
    R.add("barrier.wait_ns", pb::median(b) * 1e9, "ns");
  });

  {
    core::Engine35 engine(kThreads);
    L.step("ladder.grid", [&] {
      std::vector<double> t;
      for (int rep = 0; rep < 3; ++rep) {
        const std::int64_t a = pb::now_ns();
        grid::GridPair<float> pair(256, 256, 256, engine.team());
        t.push_back(seconds_since(a));
      }
      R.add("grid.alloc_ms", pb::median(t) * 1e3, "ms");
    });

    L.step("ladder.engine", [&] {
      // One 3.5D paper pass (dim_t 2, whole-plane tile) on the sweep-l3 grid,
      // with the engine's telemetry counters on.
      const long n = 256;
      grid::GridPair<float> pair(n, n, n, engine.team());
      fill_seeded(pair.src(), seed, engine.team());
      stencil::freeze_boundary(pair.src(), pair.dst(), 1);
      stencil::SweepConfig cfg;
      cfg.dim_t = 2;
      cfg.dim_x = cfg.dim_y = n;
      const auto st = stencil::default_stencil7<float>();
      stencil::run_sweep_auto(stencil::Variant::kBlocked35D, st, pair, 2, cfg, engine);
      telemetry::reset();
      telemetry::set_enabled(true);
      std::vector<double> t;
      for (int rep = 0; rep < 5; ++rep) {
        const std::int64_t a = pb::now_ns();
        stencil::run_sweep_auto(stencil::Variant::kBlocked35D, st, pair, 2, cfg, engine);
        t.push_back(seconds_since(a));
      }
      telemetry::set_enabled(false);
      const telemetry::Totals tot = telemetry::aggregate();
      R.add("engine.pass_ms", pb::median(t) * 1e3, "ms");
      const double busy = tot.phase_seconds(telemetry::Phase::kCompute) +
                          tot.phase_seconds(telemetry::Phase::kExternalIo) +
                          tot.phase_seconds(telemetry::Phase::kGhostFill) +
                          tot.phase_seconds(telemetry::Phase::kBarrierWait);
      const auto frac = [&](telemetry::Phase p) {
        return busy > 0 ? tot.phase_seconds(p) / busy : 0.0;
      };
      R.add("engine.compute_frac", frac(telemetry::Phase::kCompute), "ratio");
      R.add("engine.load_frac", frac(telemetry::Phase::kExternalIo), "ratio");
      R.add("engine.ghost_frac", frac(telemetry::Phase::kGhostFill), "ratio");
      R.add("engine.barrier_frac", frac(telemetry::Phase::kBarrierWait), "ratio");
      // Computed bytes per update: loads 4 B per cell, stores 8 B (with
      // write-allocate), over 5 passes of 2 steps.
      const double updates = 5.0 * 2.0 * n * n * n;
      R.add("engine.bytes_per_update",
            (static_cast<double>(tot.cells_loaded) * 4 +
             static_cast<double>(tot.cells_stored) * 8) /
                updates,
            "B");
      const double rows = static_cast<double>(tot.rows_fast + tot.rows_generic);
      R.add("engine.rows_fast_frac", rows > 0 ? tot.rows_fast / rows : 0.0, "ratio");
    });

    L.step("ladder.lbm", [&] {
      const long n = 64;
      lbm::Geometry geom(n, n, n);
      geom.set_box_walls();
      geom.set_lid();
      geom.finalize();
      lbm::BgkParams<float> prm;
      prm.omega = 1.2f;
      prm.u_wall[0] = 0.05f;
      lbm::LatticePair<float> lat(n, n, n);
      const std::pair<const char*, lbm::Variant> vs[] = {
          {"lbm.naive_step_ms", lbm::Variant::kNaive},
          {"lbm.b35_step_ms", lbm::Variant::kBlocked35D}};
      for (const auto& [name, v] : vs) {
        lbm::SweepConfig cfg;
        cfg.dim_t = 2;
        cfg.dim_x = cfg.dim_y = n;
        fill_lattice(lat.src(), seed, engine.team());
        fill_lattice(lat.dst(), seed, engine.team());
        lbm::run_lbm_auto(v, geom, prm, lat, 2, cfg, engine);
        std::vector<double> t;
        for (int rep = 0; rep < 5; ++rep) {
          const std::int64_t a = pb::now_ns();
          lbm::run_lbm_auto(v, geom, prm, lat, 2, cfg, engine);
          t.push_back(seconds_since(a) / 2);
        }
        R.add(name, pb::median(t) * 1e3, "ms");
      }
    });

    L.step("ladder.wire", [&] {
      service::JobSpec spec;
      spec.kernel = "27pt";
      spec.nx = 40;
      spec.checkpoint_path = tmp + "/job-1.ckpt";
      service::JobResult res;
      res.crc = 0xDEADBEEF;
      res.schedule_family = "deep";
      res.run_s = 0.001;
      std::vector<double> t;
      bool ok = true;
      for (int rep = 0; rep < 9; ++rep) {
        const std::int64_t a = pb::now_ns();
        for (int i = 0; i < 1000; ++i) {
          std::uint64_t job = 0;
          service::JobSpec s2;
          service::JobState state{};
          service::JobResult r2;
          ok &= service::wire::spec_from_json(service::wire::spec_to_json(7, spec), &job,
                                              &s2);
          ok &= service::wire::result_from_json(
              service::wire::result_to_json(7, service::JobState::kDone, res), &job,
              &state, &r2);
          ok &= s2.nx == spec.nx && r2.crc == res.crc;
        }
        t.push_back(seconds_since(a) / 1000);
      }
      tally.check(ok, "wire codec round trip changed a field");
      R.add("wire.roundtrip_us", pb::median(t) * 1e6, "us");
    });

    L.step("ladder.ckpt", [&] {
      // Every serve shape saved durably (fsync included) into one directory.
      std::vector<double> t;
      for (int rep = 0; rep < 3; ++rep) {
        for (const Shape& sh : kShapes) {
          grid::Grid3<float> g(sh.n, sh.n, sh.n);
          fill_seeded(g, seed, engine.team());
          const std::string path = tmp + "/ladder-" + std::to_string(sh.n) + ".ckpt";
          const std::int64_t a = pb::now_ns();
          const fault::Status st = grid::save_checkpoint_ex(path, g, 8);
          t.push_back(seconds_since(a));
          tally.check(st.ok(), "checkpoint save failed: " + st.to_string());
          std::remove(path.c_str());
        }
      }
      R.add("ckpt.save_ms", pb::median(t) * 1e3, "ms");
    });
  }  // no team outlives this block: ladder.route may fork

  // Cold compute_plan for the two cheapest serve shapes; the in-process
  // mini loop below then starts with both plans cached.
  const std::vector<Shape> mini_shapes = {kShapes[0], kShapes[3]};
  std::vector<std::pair<service::PlanKey, service::CachedPlan>> plans;
  L.step("ladder.plan", [&] {
    std::vector<double> t;
    for (const Shape& sh : mini_shapes) {
      const machine::KernelSig sig = sig_of(sh.kernel);
      const std::int64_t a = pb::now_ns();
      const service::CachedPlan p = service::compute_plan(mach, sig, sh.n, sh.n, sh.n, 4);
      t.push_back(seconds_since(a));
      plans.push_back({service::PlanKey::make(mach, sig, sh.n, sh.n, sh.n, 4), p});
    }
    R.add("plan.compute_ms", pb::median(t) * 1e3, "ms");
  });

  const JobMix mini_mix(seed, mini_shapes);
  L.step("ladder.service", [&] {
    ServeRun mini;
    const ServeRun* run = own_serve;
    if (run == nullptr) {
      service::ServiceOptions so;
      so.threads = kThreads;
      so.mach = mach;
      service::JobService svc(so);
      for (const auto& [k, p] : plans) svc.plan_cache().insert(k, p);
      pb::Tracer off(false);
      mini = serve_loop(svc, mini_mix, 0.5, 64, tally, off);
      svc.shutdown();
      check_jobs(mini, tally);
      run = &mini;
    }
    const ServeLayers sl = serve_layers(*run);
    R.add("plancache.hit_ratio", sl.hit_ratio, "ratio");
    R.add("service.wait_ms", sl.wait_ms, "ms");
    R.add("service.plan_ms", sl.plan_ms, "ms");
    R.add("service.run_ms", sl.run_ms, "ms");
    R.add("service.overhead_ms", sl.outside_ms, "ms");
    R.add("service.batched_ratio", sl.batched_ratio, "ratio");
    R.add("service.run_vs_direct", run_vs_direct(*run), "ratio");
  });

  L.step("ladder.route", [&] {
    ServeRun mini;
    const ServeRun* run = own_route;
    if (run == nullptr) {
      // Fork only from a single-threaded parent: every team above is gone.
      Cluster c(mach, mini_shapes, tmp + "/ladder-route");
      warm_shapes(*c.router, mini_mix, tally);
      pb::Tracer off(false);
      mini = serve_loop(*c.router, mini_mix, 0.5, 64, tally, off);
      c.router->drain(60'000);
      check_router(*c.router, tally);
      check_jobs(mini, tally);
      run = &mini;
    }
    const ServeLayers sl = serve_layers(*run);
    R.add("route.hop_ms", sl.outside_ms, "ms");
    R.add("route.ckpts_per_job", sl.ckpts_per_job, "count");
    R.add("route.plan_hit_ratio", sl.hit_ratio, "ratio");
  });
}

// ============================================================ workloads ==

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string tmp = ".bench_build/tmp";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || a.seconds <= 0 || a.seconds > 120) return std::nullopt;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return std::nullopt;
      a.trace = v == "1";
    } else if (k == "--tmp") {
      a.tmp = v;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload) return std::nullopt;
  return a;
}

void print_setup(const std::vector<double>& setup) {
  std::printf("  set-up runs:");
  for (const double s : setup) std::printf(" %.3f s", s);
  std::printf("\n");
}

// Prints each layer's self time over the traced spans and writes them out.
void report_trace(const pb::Tracer& tracer, const std::string& path, Report& r) {
  const auto spans = tracer.spans();
  std::printf("  self time per span (traced half and ladder):\n");
  for (const auto& [name, lt] : pb::self_by_name(spans))
    std::printf("    %-26s n=%-6ld self %10.3f ms  total %10.3f ms\n", name.c_str(),
                lt.count, lt.self_s * 1e3, lt.total_s * 1e3);
  if (!tracer.write_json(path))
    std::fprintf(stderr, "could not write %s\n", path.c_str());
  r.add("trace.spans", static_cast<double>(spans.size()), "count");
}

// Tracing overhead: how much slower the traced half ran, in percent.
void report_overhead(double untraced_rate, double traced_rate, Report& r) {
  const double pct =
      untraced_rate > 0 ? (untraced_rate - traced_rate) / untraced_rate * 100 : 0.0;
  r.add("trace.overhead_pct", pct, "%");
}

// Measuring plan shared by both workload kinds: kSetups set-ups, each
// followed by an untraced segment of seconds / kSetups (half that with
// --trace 1), so every run averages over several allocations, node
// processes and plan tunes. With --trace 1 a traced segment of the other
// half follows the last set-up.
double segment_seconds(const Args& a) {
  return (a.trace ? a.seconds / 2 : a.seconds) / kSetups;
}

void print_error_rate(const pb::Tally& tally) {
  std::printf("  error_rate %.6g (%ld failed / %ld attempted)\n", tally.error_rate(),
              tally.failed(), tally.attempted());
}

int run_sweep_workload(const Args& a, const SweepWorkload& w, pb::Tally& tally,
                       Report& r) {
  std::printf("workload %s: 7-point SP %ld^3%s, %d steps per sweep, %d threads\n",
              a.workload.c_str(), w.n,
              w.lbm_n ? (", LBM D3Q19 SP " + std::to_string(w.lbm_n) + "^3").c_str() : "",
              kSteps, kThreads);
  for (const SweepOp& op : w.ops)
    std::printf("  pinned %-16s %s\n", op.metric.c_str(), op.describe().c_str());

  const std::uint64_t input_seed = a.seed * 0x2545F4914F6CDD1Dull + 17;
  std::vector<double> setup;
  std::map<bool, std::uint32_t> want;
  SweepSamples m;
  pb::Tracer off(false);
  SweepState s;
  for (int k = 0; k < kSetups; ++k) {
    s = SweepState{};  // free the previous set-up before allocating again
    const std::int64_t t0 = pb::now_ns();
    s = setup_sweeps(w, input_seed);
    setup.push_back(seconds_since(t0));
    if (k == 0) {
      // Naive references (untimed): the CRC every timed sweep must match.
      for (const SweepOp& op : w.ops) {
        const bool naive = op.lbm ? op.lbm_variant == lbm::Variant::kNaive
                                  : op.variant == stencil::Variant::kNaive;
        if (!naive || want.count(op.lbm)) continue;
        load_input(s, op, input_seed);
        run_op(s, op, kSteps);
        want[op.lbm] = op_crc(s, op);
      }
    }
    const std::size_t r0 = m.round_mupds.size();
    sweep_loop(w, s, input_seed, segment_seconds(a), want, tally, off, m);
    std::printf("  segment %d: set-up %.3f s, rounds", k, setup.back());
    for (std::size_t i = r0; i < m.round_mupds.size(); ++i)
      std::printf(" %.1f", m.round_mupds[i]);
    std::printf(" Mupd/s\n");
  }
  print_setup(setup);
  for (const SweepOp& op : w.ops) {
    const std::vector<double>& t = m.seconds.at(op.metric);
    std::printf("  %-16s %10.1f Mupd/s  (median of %zu sweeps)\n", op.metric.c_str(),
                op_updates(w, op) / pb::median(t) / 1e6, t.size());
  }
  const double mupds = pb::median(m.round_mupds);
  if (!a.trace) {
    s = SweepState{};
    r.add("setup_s", pb::median(setup), "s");
    r.add("rss_peak_mb", rss_peak_mb(), "MB");
    r.add("mupds", mupds, "Mupd/s");
    print_error_rate(tally);
    return 0;
  }

  pb::Tracer tracer(true);
  SweepSamples traced;
  sweep_loop(w, s, input_seed, a.seconds / 2, want, tally, tracer, traced);
  report_overhead(mupds, pb::median(traced.round_mupds), r);
  s = SweepState{};

  const machine::Descriptor mach = machine::host();
  Ladder L{tracer, tracer.begin("ladder"), r};
  run_ladder(L, mach, a.tmp, a.seed, tally, nullptr, nullptr);
  tracer.end(L.root);
  report_trace(tracer, a.tmp + "/trace-" + a.workload + ".json", r);
  return 0;
}

// Appends `more` to `into`, summing loop wall time.
void pool(ServeRun& into, ServeRun&& more) {
  into.wall_s += more.wall_s;
  for (JobSample& j : more.jobs) into.jobs.push_back(std::move(j));
  into.window_mupds.insert(into.window_mupds.end(), more.window_mupds.begin(),
                           more.window_mupds.end());
}

int run_serve_workload(const Args& a, bool routed, pb::Tally& tally, Report& r) {
  std::printf("workload %s: closed loop, %d clients, mix 7pt 32^3/48^3/64^3 + 27pt 40^3, "
              "%d steps, %s\n",
              a.workload.c_str(), kThreads, kSteps,
              routed ? "router over 2 forked nodes x 2 threads, localhost TCP"
                     : "in-process JobService, 4 threads");
  const JobMix mix(a.seed, {std::begin(kShapes), std::end(kShapes)});
  const std::string ckpt_dir = a.tmp + "/ckpt-" + std::to_string(::getpid());

  std::vector<double> setup;
  machine::Descriptor mach;
  std::unique_ptr<service::JobService> svc;
  std::unique_ptr<Cluster> cl;
  ServeRun run;
  pb::Tracer off(false);
  const auto finish_segment = [&] {
    if (svc) svc->drain(60'000);
    if (cl) {
      cl->router->drain(60'000);
      check_router(*cl->router, tally);
    }
  };
  for (int k = 0; k < kSetups; ++k) {
    svc.reset();
    cl.reset();  // reaps the nodes, so their peak joins rss_peak_mb
    const std::int64_t t0 = pb::now_ns();
    mach = machine::host();
    if (routed) {
      cl = std::make_unique<Cluster>(mach, mix.shapes, ckpt_dir);
      warm_shapes(*cl->router, mix, tally);
    } else {
      service::ServiceOptions so;
      so.threads = kThreads;
      so.mach = mach;
      svc = std::make_unique<service::JobService>(so);
      warm_shapes(*svc, mix, tally);
    }
    setup.push_back(seconds_since(t0));
    service::JobBackend& backend =
        routed ? static_cast<service::JobBackend&>(*cl->router) : *svc;
    std::printf("  segment %d: set-up %.3f s, windows", k, setup.back());
    for (int i = 0; i < kWindows; ++i) {
      constexpr long kWindowMinJobs =
          (kMinJobs + kSetups * kWindows - 1) / (kSetups * kWindows);
      ServeRun win = serve_loop(backend, mix, segment_seconds(a) / kWindows,
                                kWindowMinJobs, tally, off);
      std::printf(" %.1f", win.window_mupds.front());
      pool(run, std::move(win));
    }
    std::printf(" Mupd/s\n");
    finish_segment();
  }
  print_setup(setup);
  print_latency(run);
  const double mupds = pb::median(run.window_mupds);

  if (!a.trace) {
    svc.reset();
    cl.reset();
    check_jobs(run, tally);
    r.add("setup_s", pb::median(setup), "s");
    r.add("rss_peak_mb", rss_peak_mb(), "MB");
    r.add("mupds", mupds, "Mupd/s");
    print_error_rate(tally);
    return 0;
  }

  pb::Tracer tracer(true);
  service::JobBackend& backend =
      routed ? static_cast<service::JobBackend&>(*cl->router) : *svc;
  const ServeRun traced =
      serve_loop(backend, mix, a.seconds / 2, kMinJobs, tally, tracer);
  report_overhead(mupds, traced.window_mupds.front(), r);
  finish_segment();
  // Tear the plane down before the ladder spawns teams or forks.
  svc.reset();
  cl.reset();
  check_jobs(run, tally);
  check_jobs(traced, tally);

  // The loop's own JobResults feed the service numbers (node-reported on
  // the routed plane) and, when routed, the route numbers.
  Ladder L{tracer, tracer.begin("ladder"), r};
  run_ladder(L, mach, a.tmp, a.seed, tally, &traced, routed ? &traced : nullptr);
  tracer.end(L.root);
  report_trace(tracer, a.tmp + "/trace-" + a.workload + ".json", r);
  return 0;
}

// Last resort: a run that overstays its budget kills its nodes and exits
// non-zero without printing a result.
void on_alarm(int) {
  for (int i = 0; i < g_node_count; ++i)
    if (g_node_pids[i] > 0) ::kill(g_node_pids[i], SIGKILL);
  const char msg[] = "perfbench: time budget exceeded\n";
  (void)!::write(2, msg, sizeof(msg) - 1);
  ::_exit(3);
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  const char* kWorkloads[] = {"sweep-dram", "sweep-l3", "serve-warm", "serve-routed"};
  const auto known = [&](const char* w) { return args && args->workload == w; };
  if (std::find_if(std::begin(kWorkloads), std::end(kWorkloads), known) ==
      std::end(kWorkloads)) {
    std::fprintf(stderr,
                 "usage: s35_perfbench --workload "
                 "sweep-dram|sweep-l3|serve-warm|serve-routed"
                 " --seed N --seconds S --trace 0|1 [--tmp DIR]\n");
    return 2;
  }
  signal(SIGALRM, on_alarm);
  alarm(170);
  std::filesystem::create_directories(args->tmp);

  pb::Tally tally;
  Report report;
  const std::string& w = args->workload;
  if (w == "sweep-dram") run_sweep_workload(*args, sweep_dram(), tally, report);
  if (w == "sweep-l3") run_sweep_workload(*args, sweep_l3(), tally, report);
  if (w == "serve-warm") run_serve_workload(*args, false, tally, report);
  if (w == "serve-routed") run_serve_workload(*args, true, tally, report);

  print_result_line(tally, report);
  return tally.failed() == 0 ? 0 : 1;
}
