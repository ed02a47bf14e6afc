// The backend conformance scenario, shared by test_backends (forked workers
// and nodes) and test_monitor (in-thread nodes): one script every
// JobBackend must pass, plus the pinned-plan helpers it checks against.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/crc32c.h"
#include "core/engine.h"
#include "grid/grid3.h"
#include "machine/descriptor.h"
#include "service/backend.h"
#include "service/service.h"
#include "stencil/stencil_kernels.h"
#include "stencil/sweeps.h"

namespace s35::conformance {

// Deterministic machine identity: no host probing, identical plans in every
// process — the precondition for cross-process bit-exactness.
inline service::ServiceOptions exec_options() {
  service::ServiceOptions o;
  o.threads = 2;
  o.mach = machine::core_i7();
  return o;
}

// Pinned plan, so the direct reference sweeps exactly like every backend.
inline service::JobSpec pinned_spec(long n, int steps, std::uint64_t seed) {
  service::JobSpec spec;
  spec.nx = n;
  spec.steps = steps;
  spec.dim_x = 8;
  spec.dim_y = 8;
  spec.dim_t = 2;
  spec.seed = seed;
  return spec;
}

// One run_sweep_auto call over all steps, seeded the way jobs are.
inline std::uint32_t direct_crc(const service::JobSpec& spec) {
  core::Engine35 engine(2);
  grid::GridPair<float> pair(spec.nx, spec.eff_ny(), spec.eff_nz());
  pair.src().fill_random(spec.seed, -1.0f, 1.0f);
  stencil::freeze_boundary(pair.src(), pair.dst(), 1);
  stencil::SweepConfig cfg;
  cfg.dim_x = spec.dim_x;
  cfg.dim_y = spec.dim_y;
  cfg.dim_t = spec.dim_t;
  run_sweep_auto(stencil::Variant::kBlocked35D, stencil::default_stencil7<float>(),
                 pair, spec.steps, cfg, engine);
  const grid::Grid3<float>& g = pair.src();
  std::uint32_t crc = 0;
  for (long z = 0; z < g.nz(); ++z)
    for (long y = 0; y < g.ny(); ++y)
      crc = crc32c(g.row(y, z), static_cast<std::size_t>(g.nx()) * sizeof(float), crc);
  return crc;
}

inline bool wait_running(service::JobBackend& b, std::uint64_t id) {
  for (int i = 0; i < 3000; ++i) {
    const auto info = b.info(id);
    if (info && info->state == service::JobState::kRunning) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

// `capacity` is the number of same-shape jobs the backend runs at once.
inline void run_scenario(service::JobBackend& b, int capacity) {
  using service::JobSpec;
  using service::JobState;

  // Bit-exact against a direct sweep.
  const JobSpec spec = pinned_spec(20, 6, 7);
  const auto id = b.submit(spec);
  ASSERT_TRUE(id.ok()) << id.status().to_string();
  const auto done = b.wait(id.value(), 60'000);
  ASSERT_TRUE(done.has_value());
  ASSERT_EQ(done->state, JobState::kDone) << done->result.message;
  EXPECT_EQ(done->result.crc, direct_crc(spec));

  // A bad spec is rejected at admission, typed.
  JobSpec bad = spec;
  bad.kernel = "9pt";
  EXPECT_EQ(b.submit(bad).status().code(), fault::ErrorCode::kMismatch);

  // An unknown id is not waited on.
  EXPECT_FALSE(b.wait(987654).has_value());

  // Long same-shape jobs fill every slot that could run the shape; jobs
  // submitted behind them stay queued.
  const JobSpec slow = pinned_spec(48, 200'000, 11);
  std::vector<std::uint64_t> longs;
  for (int i = 0; i < capacity; ++i) {
    const auto l = b.submit(slow);
    ASSERT_TRUE(l.ok()) << l.status().to_string();
    longs.push_back(l.value());
  }
  for (const std::uint64_t l : longs) ASSERT_TRUE(wait_running(b, l)) << "job " << l;

  JobSpec late = slow;
  late.deadline_ms = 1;
  const auto expiring = b.submit(late);
  ASSERT_TRUE(expiring.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto cancelled = b.submit(slow);  // this admission also sheds
  ASSERT_TRUE(cancelled.ok());
  EXPECT_TRUE(b.cancel(cancelled.value()));

  const auto c = b.wait(cancelled.value(), 30'000);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->state, JobState::kCancelled) << c->result.message;
  const auto e = b.wait(expiring.value(), 30'000);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->state, JobState::kExpired) << e->result.message;

  for (const std::uint64_t l : longs) {
    EXPECT_TRUE(b.cancel(l));
    const auto info = b.wait(l, 60'000);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->state, JobState::kCancelled) << info->result.message;
  }

  // Terminal conservation once drained.
  ASSERT_TRUE(b.drain(60'000));
  const auto s = b.stats();
  EXPECT_EQ(s.submitted, s.completed + s.failed + s.cancelled + s.expired);
  EXPECT_EQ(s.submitted, 3u + longs.size());
  EXPECT_EQ(s.cancelled, 1u + longs.size());
  EXPECT_EQ(s.expired, 1u);

  // No admission after shutdown.
  b.shutdown();
  EXPECT_EQ(b.submit(spec).status().code(), fault::ErrorCode::kUnavailable);
}

}  // namespace s35::conformance
