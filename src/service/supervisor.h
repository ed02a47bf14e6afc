// Supervisor: the crash-isolated serving plane.
//
// Forks N worker processes, each running the frame executor (executor.h)
// over one socketpair, and multiplexes client jobs over them on the
// monitor skeleton (monitor.h): death, hang, escalation, exactly-once
// delivery and restart backoff are the skeleton's. What is the
// Supervisor's own:
//
//   transport    fork + socketpair per worker; a worker serves at once,
//                with a window of one job;
//   reaping      waitpid(WNOHANG) each round. A worker is recycled with
//                SIGKILL, but only while its pid is not yet reaped, so the
//                signal can never reach a recycled pid;
//   affinity     an idle worker claims the queued job that matches the shape
//                of the last job it completed;
//   faults       injected process faults ride the submit frame, to a
//                worker's first incarnation only, so a fault never refires
//                after the plane has absorbed it;
//   stop         a drained worker exits on its own (persisting its plan
//                cache shard); stragglers are SIGKILLed after 3 s.
//
// Failover is bit-exact: workers checkpoint at pass boundaries (format v2,
// user_tag = completed steps), so a sibling resumes from the last durable
// pass and ends bit-identical to a fault-free run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "fault/retry.h"
#include "service/monitor.h"
#include "service/service.h"

namespace s35::service {

struct SupervisorOptions {
  int workers = 2;
  int beat_ms = 50;    // worker heartbeat period
  int hang_ms = 5000;  // progress-staleness kill threshold; 0 = off
  int max_restarts = 3;     // per worker, before it is abandoned
  int max_job_attempts = 3; // dispatches per job, before it fails
  fault::RetryPolicy backoff;  // worker restart schedule
  // Failover checkpoints land in this directory as job-<id>.ckpt; empty
  // disables periodic checkpointing (failover then restarts from step 0 —
  // still bit-exact, just slower).
  std::string checkpoint_dir;
  int checkpoint_every = 1;  // passes between failover checkpoints
  std::size_t queue_capacity = 64;
  long max_points = 16L * 1024 * 1024;
  ServiceOptions service;  // per-worker template (threads, plan cache, ...)
  // Tenancy / overload resilience (tenancy.h); enforced at the supervisor's
  // admission edge, plus the poison-job quarantine in failover. Default-off.
  TenancyOptions tenancy;
  // Injected process faults (tests/CLI). Forwarded to targeted workers'
  // first incarnations only; never owned by the supervisor.
  fault::FaultPlan* faults = nullptr;

  // Honors S35_SERVE_WORKERS, S35_SERVE_BEAT_MS, S35_SERVE_HANG_MS,
  // S35_SERVE_MAX_RESTARTS, S35_SERVE_CKPT_DIR, S35_SERVE_CKPT_EVERY on
  // top of ServiceOptions::from_env() for the per-worker template (which
  // also carries the tenancy knobs — copied up to this plane).
  static SupervisorOptions from_env();
};

class Supervisor : public Monitor {
 public:
  explicit Supervisor(SupervisorOptions options = {});
  ~Supervisor() override;  // shutdown(): graceful drain, then reap workers

  const SupervisorOptions& options() const { return opts_; }

 private:
  struct Process {
    long pid = -1;  // pid_t, widened so the header stays platform-neutral
    int spawns = 0;
    std::uint64_t affinity = 0;  // shape key of the last dispatched job
  };

  bool start_peer(Peer& p) override;
  void detach(Peer& p, bool recycle) override;
  void reap() override;
  void dispatch() override;
  void halt(std::int64_t deadline_ns) override;
  std::string submit_payload(const Peer& p, const JobTable::Job& job) const;

  SupervisorOptions opts_;
  std::vector<Process> procs_;  // by peer index; the monitor thread owns it
};

}  // namespace s35::service
