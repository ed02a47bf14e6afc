// Supervisor: the crash-isolated serving plane.
//
// Forks N worker processes, each running the frame executor (executor.h)
// over one socketpair, and multiplexes client jobs over them through the
// wire protocol (wire.h). The job records live in a JobTable (job_table.h),
// the same lifecycle the other backends run on. One monitor thread owns
// every worker pipe and the process table; it is simultaneously the
// dispatcher, the heartbeat examiner, and the reaper:
//
//   death       waitpid(WNOHANG) after every poll round. Before declaring
//               the in-flight job lost, the pipe is drained — a result
//               written microseconds before the crash is still a result.
//   hang        beats carry a pass-progress counter; a live worker whose
//               progress has not advanced for hang_ms is SIGKILLed. Frame
//               arrival alone proves nothing: an injected stall keeps the
//               executor beating while the job is frozen.
//   escalation  a result of kSdcDetected means the in-process integrity
//               ladder gave up — the worker is recycled and the job fails
//               over like a crash.
//
// Failover is bit-exact: workers checkpoint at pass boundaries (format v2,
// user_tag = completed steps), so a sibling resumes from the last durable
// pass and ends bit-identical to a fault-free run. Exactly-once delivery:
// terminal state is recorded once per job id; duplicate result frames are
// dropped, and a job is re-dispatched only after its previous worker is
// known dead. Restarts use capped+jittered backoff (fault::retry) and a
// worker is abandoned after max_restarts; injected process faults are
// forwarded only to a worker's first incarnation, so a fault never refires
// after the plane has already absorbed it.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault_plan.h"
#include "fault/retry.h"
#include "fault/status.h"
#include "service/backend.h"
#include "service/job.h"
#include "service/job_table.h"
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

class Supervisor : public JobBackend {
 public:
  explicit Supervisor(SupervisorOptions options = {});
  ~Supervisor() override;  // shutdown(): graceful drain, then reap workers

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  fault::Expected<std::uint64_t> submit(const JobSpec& spec) override;
  bool cancel(std::uint64_t id) override;
  std::optional<JobInfo> info(std::uint64_t id) const override {
    return table_.info(id);
  }
  std::optional<JobInfo> wait(std::uint64_t id,
                              std::int64_t timeout_ms = -1) override {
    return table_.wait(id, timeout_ms);
  }
  bool drain(std::int64_t timeout_ms = -1) override { return table_.drain(timeout_ms); }
  ServiceStats stats() const override;

  // Graceful drain: stops admission, finishes every accepted job (workers
  // keep checkpointing in-flight work at pass boundaries throughout), asks
  // workers to exit, reaps them. Idempotent. SIGTERM in `s35 serve` lands
  // here.
  void shutdown() override;

  const SupervisorOptions& options() const { return opts_; }

 private:
  struct WorkerSlot {
    int index = 0;
    long pid = -1;  // pid_t, widened so the header stays platform-neutral
    int fd = -1;
    std::string acc;  // partial wire frames
    int incarnation = 0;
    std::uint64_t restarts = 0;
    bool live = false;
    bool abandoned = false;
    bool drained = false;
    std::uint64_t job = 0;       // outer id in flight; 0 = idle
    std::uint64_t affinity = 0;  // shape key of the last completed job
    std::uint64_t progress = 0;  // last beat's pass counter
    std::int64_t progress_ns = 0;  // when progress last advanced
    std::int64_t beat_ns = 0;      // when any beat last arrived
    std::int64_t restart_at_ns = 0;  // backoff deadline while !live
  };

  void monitor_loop();
  bool spawn(WorkerSlot& w);
  void handle_frame(WorkerSlot& w, std::uint32_t type, const std::string& payload);
  void on_result(WorkerSlot& w, const std::string& payload);
  void worker_down(WorkerSlot& w, bool expected);
  void dispatch();
  void wake();

  SupervisorOptions opts_;
  JobTable table_;
  std::vector<WorkerSlot> slots_;
  int wake_fds_[2] = {-1, -1};

  mutable std::mutex mu_;  // slot metadata read by stats()
  std::atomic<bool> stopping_{false};
  std::thread monitor_;
};

}  // namespace s35::service
