// Backend conformance: one scenario script run against every JobBackend —
// the in-process JobService, a 2-worker Supervisor and a Router over two
// serve_node processes — plus the stale-checkpoint regression on both
// checkpointing planes and a retention soak per backend.
//
// The Supervisor forks workers and the Router tests fork nodes; this suite
// must NOT run under ThreadSanitizer (TSan does not support multithreaded
// fork), so CI's TSan leg leaves it out.
#include <gtest/gtest.h>

#include <dirent.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "backend_scenario.h"
#include "cluster/node.h"
#include "cluster/ring.h"
#include "cluster/router.h"
#include "cluster/tcp.h"
#include "fault/fault_plan.h"
#include "service/backend.h"
#include "service/service.h"
#include "service/supervisor.h"

namespace s35 {
namespace {

using conformance::direct_crc;
using conformance::exec_options;
using conformance::pinned_spec;
using conformance::wait_running;
using service::JobBackend;
using service::JobService;
using service::JobSpec;
using service::JobState;

std::string fresh_dir(const char* name) {
  std::string dir = ::testing::TempDir() + "/" + name + "-XXXXXX";
  EXPECT_NE(::mkdtemp(dir.data()), nullptr);
  return dir;
}

std::vector<std::string> dir_entries(const std::string& dir) {
  std::vector<std::string> out;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name != "." && name != "..") out.push_back(name);
    }
    ::closedir(d);
  }
  return out;
}

// ------------------------------------------------------------------ planes

// Executors ship a terminal at their next poll round (beat_ms / 2, within
// 5..20 ms); a short beat keeps the thousands-of-jobs soak quick.
constexpr int kBeatMs = 10;

// A backend under test plus the node processes it routes to.
struct Plane {
  std::unique_ptr<JobBackend> backend;
  std::vector<pid_t> nodes;
  int capacity = 1;  // same-shape jobs that run at once

  Plane() = default;
  Plane(Plane&&) = default;
  ~Plane() {
    backend.reset();  // graceful drain first, while the nodes still serve
    for (const pid_t pid : nodes) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
};

Plane make_service() {
  Plane p;
  p.backend = std::make_unique<JobService>(exec_options());
  return p;
}

Plane make_supervisor(const std::string& ckpt_dir, fault::FaultPlan* faults = nullptr,
                      int checkpoint_every = 1) {
  service::SupervisorOptions o;
  o.workers = 2;
  o.beat_ms = kBeatMs;
  o.checkpoint_dir = ckpt_dir;
  o.checkpoint_every = checkpoint_every;
  o.service = exec_options();
  o.faults = faults;
  Plane p;
  p.backend = std::make_unique<service::Supervisor>(o);
  p.capacity = 2;
  return p;
}

// Two forked nodes; the ring owner of `shape` gets `owner_kill_at_pass`.
Plane make_router(const std::string& ckpt_dir, std::uint64_t shape = 0,
                  long owner_kill_at_pass = -1, int checkpoint_every = 1,
                  std::size_t queue_capacity = 64) {
  struct Bound {
    int fd = -1;
    std::string address;
  };
  std::vector<Bound> bound(2);
  cluster::HashRing ring(64);
  for (Bound& b : bound) {
    int port = 0;
    b.fd = cluster::tcp_listen("127.0.0.1", 0, &port);
    EXPECT_GE(b.fd, 0);
    b.address = "127.0.0.1:" + std::to_string(port);
    ring.add(b.address);
  }
  const std::string victim = ring.owner(shape);

  Plane p;
  cluster::RouterOptions ro;
  for (const Bound& b : bound) {
    cluster::NodeOptions no;
    no.name = b.address;
    no.beat_ms = kBeatMs;
    no.service = exec_options();
    if (b.address == victim) no.kill_at_pass = owner_kill_at_pass;
    const pid_t pid = ::fork();
    if (pid == 0) {
      static std::atomic<bool> never{false};
      ::_exit(cluster::serve_node(b.fd, no, &never));
    }
    ::close(b.fd);
    p.nodes.push_back(pid);
    ro.nodes.push_back(b.address);
  }
  ro.beat_ms = kBeatMs;
  ro.connect_timeout_ms = 2000;
  ro.vnodes = 64;
  ro.checkpoint_dir = ckpt_dir;
  ro.checkpoint_every = checkpoint_every;
  ro.queue_capacity = queue_capacity;
  p.backend = std::make_unique<cluster::Router>(ro);
  p.capacity = 2;  // one shape lands on its owner's window of 2
  // Both nodes in the ring before any job, so placement is the ring owner.
  for (int i = 0; i < 1000 && p.backend->stats().workers_live < 2; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(p.backend->stats().workers_live, 2);
  return p;
}

// --------------------------------------------------------------- scenario

void run_scenario(Plane& plane) {
  conformance::run_scenario(*plane.backend, plane.capacity);
}

TEST(BackendConformance, JobService) {
  Plane p = make_service();
  run_scenario(p);
}

TEST(BackendConformance, Supervisor) {
  const std::string dir = fresh_dir("s35_conf_sup");
  Plane p = make_supervisor(dir);
  run_scenario(p);
  EXPECT_TRUE(dir_entries(dir).empty());
}

TEST(BackendConformance, Router) {
  const std::string dir = fresh_dir("s35_conf_route");
  Plane p = make_router(dir);
  run_scenario(p);
  EXPECT_TRUE(dir_entries(dir).empty());
}

// ------------------------------------------------- stale-checkpoint resume

// Ids restart at 1 in every process. A job-1.ckpt left by an earlier
// process (here: a finished job with another seed) must not seed the
// failover of this process's job 1. The executor dies at its job's first
// pass boundary, before checkpoint_every = 2 has written anything, so the
// only file a resume could find is the stale one.
JobSpec stale_spec(std::uint64_t seed) { return pinned_spec(24, 4, seed); }

void seed_stale_checkpoint(const std::string& dir) {
  JobSpec earlier = stale_spec(1);
  earlier.checkpoint_path = dir + "/job-1.ckpt";
  JobService svc(exec_options());
  const auto id = svc.submit(earlier);
  ASSERT_TRUE(id.ok());
  const auto done = svc.wait(id.value());
  ASSERT_TRUE(done.has_value());
  ASSERT_EQ(done->state, JobState::kDone);
  ASSERT_EQ(::access(earlier.checkpoint_path.c_str(), F_OK), 0);
}

void expect_fault_free_crc(Plane& plane, const std::string& dir) {
  const JobSpec spec = stale_spec(2);
  const auto id = plane.backend->submit(spec);
  ASSERT_TRUE(id.ok()) << id.status().to_string();
  ASSERT_EQ(id.value(), 1u);
  const auto done = plane.backend->wait(id.value(), 60'000);
  ASSERT_TRUE(done.has_value());
  ASSERT_EQ(done->state, JobState::kDone) << done->result.message;
  EXPECT_EQ(done->result.crc, direct_crc(spec)) << "resumed a stale checkpoint";
  EXPECT_EQ(done->result.resumed_steps, 0);
  const auto s = plane.backend->stats();
  EXPECT_EQ(s.failovers, 1u);
  ASSERT_TRUE(plane.backend->drain(60'000));
  plane.backend->shutdown();
  EXPECT_TRUE(dir_entries(dir).empty());
}

TEST(StaleCheckpoint, SupervisorIgnoresEarlierProcessFile) {
  const std::string dir = fresh_dir("s35_stale_sup");
  seed_stale_checkpoint(dir);
  fault::FaultPlan faults(7);
  faults.kill_worker = 0;
  faults.kill_worker_pass = 0;
  Plane p = make_supervisor(dir, &faults, /*checkpoint_every=*/2);
  expect_fault_free_crc(p, dir);
  EXPECT_EQ(faults.counters().worker_kills, 1u);
}

TEST(StaleCheckpoint, RouterIgnoresEarlierProcessFile) {
  const std::string dir = fresh_dir("s35_stale_route");
  seed_stale_checkpoint(dir);
  Plane p = make_router(dir, stale_spec(2).shape_key(), /*owner_kill_at_pass=*/0,
                        /*checkpoint_every=*/2);
  expect_fault_free_crc(p, dir);
}

// ---------------------------------------------------- router backpressure

// A saturated ring owner must not pull the router's whole queue out into
// held-back jobs. At most the cluster's free capacity (here the other
// node's window of 2) waits outside the queue, so the queue's capacity
// still rejects with "queue full" and its priority order still holds.
TEST(RouterBackpressure, SaturatedOwnerKeepsQueueBoundAndPriority) {
  const JobSpec slow = pinned_spec(48, 200'000, 11);
  Plane p = make_router("", slow.shape_key(), -1, 1, /*queue_capacity=*/4);
  JobBackend& b = *p.backend;
  std::vector<std::uint64_t> longs;
  for (int i = 0; i < p.capacity; ++i) {
    const auto l = b.submit(slow);
    ASSERT_TRUE(l.ok()) << l.status().to_string();
    longs.push_back(l.value());
  }
  for (const std::uint64_t l : longs) ASSERT_TRUE(wait_running(b, l)) << "job " << l;

  // Same-shape jobs, spaced so the router runs dispatch rounds in between.
  const auto submit_spaced = [&](const JobSpec& spec) {
    const auto id = b.submit(spec);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return id;
  };
  std::vector<std::uint64_t> backlog;
  for (std::uint64_t seed = 100; seed < 103; ++seed) {
    const auto id = submit_spaced(pinned_spec(48, 40, seed));
    ASSERT_TRUE(id.ok()) << id.status().to_string();
    backlog.push_back(id.value());
  }
  JobSpec urgent = pinned_spec(48, 40, 99);
  urgent.priority = 1;
  const auto prio = submit_spaced(urgent);
  ASSERT_TRUE(prio.ok()) << prio.status().to_string();

  fault::Status full;
  for (std::uint64_t seed = 200; seed < 216 && full.ok(); ++seed) {
    const auto id = submit_spaced(pinned_spec(48, 40, seed));
    if (id.ok())
      backlog.push_back(id.value());
    else
      full = id.status();
  }
  EXPECT_EQ(full.code(), fault::ErrorCode::kUnavailable);
  EXPECT_NE(full.message().find("queue full"), std::string::npos) << full.to_string();
  EXPECT_LE(backlog.size() + 1, 2u + 4u);  // held back + queue capacity

  // Free the owner. The urgent job starts before the third backlog job,
  // which was still queued when the urgent one arrived. Read the backlog
  // job first: once it has started, the urgent one must have too.
  for (const std::uint64_t l : longs) EXPECT_TRUE(b.cancel(l));
  const std::uint64_t third = backlog[2];
  for (int i = 0; i < 60'000; ++i) {
    const auto t = b.info(third);
    const auto u = b.info(prio.value());
    ASSERT_TRUE(t.has_value() && u.has_value());
    if (t->state != JobState::kQueued) {
      EXPECT_NE(u->state, JobState::kQueued) << "backlog job started before priority job";
      break;
    }
    if (u->state != JobState::kQueued) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  backlog.push_back(prio.value());
  for (const std::uint64_t id : backlog) {
    const auto info = b.wait(id, 60'000);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->state, JobState::kDone) << info->result.message;
  }
  ASSERT_TRUE(b.drain(60'000));
}

// ------------------------------------------------------------------- soak

// Enough tiny jobs to overflow the default retention of 4096 terminal
// records: the oldest ids are evicted (info() treats them as unknown) and
// no checkpoint outlives its job.
constexpr int kSoakJobs = 4600;

void soak(Plane& plane, const std::string& dir) {
  JobBackend& b = *plane.backend;
  const JobSpec spec = pinned_spec(8, 1, 3);
  std::deque<std::uint64_t> inflight;
  std::uint64_t first = 0, last = 0;
  for (int i = 0; i < kSoakJobs; ++i) {
    if (inflight.size() >= 32) {
      const auto info = b.wait(inflight.front(), 60'000);
      ASSERT_TRUE(info.has_value());
      ASSERT_EQ(info->state, JobState::kDone) << info->result.message;
      inflight.pop_front();
    }
    const auto id = b.submit(spec);
    ASSERT_TRUE(id.ok()) << id.status().to_string();
    if (i == 0) first = id.value();
    last = id.value();
    inflight.push_back(id.value());
  }
  ASSERT_TRUE(b.drain(120'000));
  const auto s = b.stats();
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kSoakJobs));
  EXPECT_FALSE(b.info(first).has_value()) << "oldest terminal record kept";
  std::size_t retained = 0;
  for (std::uint64_t id = first; id <= last; ++id) retained += b.info(id).has_value();
  EXPECT_EQ(retained, 4096u);  // the default retention, exactly
  ASSERT_TRUE(b.info(last).has_value());
  EXPECT_EQ(b.info(last)->state, JobState::kDone);
  if (!dir.empty()) {
    EXPECT_TRUE(dir_entries(dir).empty());
  }
}

TEST(RetentionSoak, JobService) {
  Plane p = make_service();
  soak(p, "");
}

TEST(RetentionSoak, Supervisor) {
  const std::string dir = fresh_dir("s35_soak_sup");
  Plane p = make_supervisor(dir);
  soak(p, dir);
}

TEST(RetentionSoak, Router) {
  const std::string dir = fresh_dir("s35_soak_route");
  Plane p = make_router(dir);
  soak(p, dir);
}

}  // namespace
}  // namespace s35
