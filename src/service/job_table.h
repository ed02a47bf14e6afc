// JobTable: the job-record lifecycle shared by every JobBackend.
//
// JobService, Supervisor and cluster::Router differ only in where a job
// runs: the warm in-process engine, a forked worker, a TCP node. What
// happens to the job's record is the same on all three and lives here:
//
//   admission    validate_spec, eager deadline shedding, the tenant
//                governor's ladder, id assignment and the queue push;
//   checkpoints  a table built with a checkpoint dir names each job's
//                failover checkpoint (<dir>/job-<id>.ckpt) at admission. Ids
//                restart at 1 in every process, so it unlinks any file
//                already at that path when the job is first claimed (before
//                it can start), and unlinks the path again at the terminal
//                transition; drain() returns only once that is done. A
//                table without a dir never touches files — the inner
//                JobService of a worker or node never deletes a checkpoint
//                its parent plane owns;
//   terminals    first wins; a later result for the same id is dropped;
//   failover     requeue with resume, bounded by max_attempts and the
//                poison-job breaker;
//   retention    the newest `retention` terminal records stay queryable;
//                older ones are erased, and info()/wait() on an evicted id
//                return nullopt like an unknown id.
//
// Every ServiceStats counter has one definition: wait is admission to the
// last start, and a plan hit is result.plan_cache_hit.
//
// Scheduling: next() claims the next queued job — failed-over and held-back
// jobs first, then the queue's priority/DRR/affinity order. A claimed job
// must be passed to start() or hold(). start() marks it running (or
// realizes a cancel or deadline that landed meanwhile).
//
// Thread-safety: every method is safe from any thread. No method hands out
// a reference into a record; callers get copies, so retention may erase
// any terminal record the moment the table's lock is released. The table
// calls nothing while holding its lock except the queue and the
// TenantGovernor, neither of which calls back. Checkpoint unlinks (a whole
// grid each) happen after the lock is released.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fault/status.h"
#include "service/backend.h"
#include "service/job.h"
#include "service/queue.h"
#include "service/tenancy.h"

namespace s35::service {

struct JobTableOptions {
  long max_points = 16L * 1024 * 1024;  // validate_spec's nx*ny*nz cap
  std::size_t queue_capacity = 64;
  TenancyOptions tenancy;
  std::string checkpoint_dir;  // "" = the table never touches files
  int checkpoint_every = 1;    // passes between failover checkpoints
  int max_attempts = 3;        // starts per job before failover gives up
  std::size_t retention = 4096;  // terminal records kept queryable
};

class JobTable {
 public:
  explicit JobTable(JobTableOptions options);

  // A job handed to an executor. The spec carries the table's checkpoint
  // fields; wait_s and deadline_ns are filled in by start().
  struct Job {
    std::uint64_t id = 0;
    JobSpec spec;
    double wait_s = 0.0;           // admission to this start
    std::int64_t deadline_ns = 0;  // absolute steady-clock ns; 0 = none
  };

  // ---- the JobBackend surface (backend.h semantics) ----
  fault::Expected<std::uint64_t> submit(const JobSpec& spec);
  // A queued job ends kCancelled now; a running one is flagged for its
  // executor (cancel_requested / take_cancels). False if unknown/terminal.
  bool cancel(std::uint64_t id);
  std::optional<JobInfo> info(std::uint64_t id) const;
  std::optional<JobInfo> wait(std::uint64_t id, std::int64_t timeout_ms);
  bool drain(std::int64_t timeout_ms);
  // Stops admission; queued jobs stay claimable. False when already closed.
  bool close();

  // ---- scheduling ----
  // Claims the next queued job, or nullopt when none is queued. With
  // `block`, waits on the queue (and its gate) instead, returning nullopt
  // only once the table is closed and drained.
  std::optional<Job> next(std::uint64_t affinity, bool block = false);
  // Claims the next failed-over or held-back job only; never pops the queue.
  std::optional<Job> next_retry();
  // Marks a claimed job running at `where` (a backend slot index). nullopt
  // when it is no longer startable: cancelled or past its deadline (both
  // realized here), or already terminal.
  std::optional<Job> start(std::uint64_t id, int where);
  // Returns claimed jobs to the head of the line, in order.
  void hold(const std::vector<std::uint64_t>& ids);
  // Undoes a start whose submit never reached the executor.
  void requeue(std::uint64_t id);
  // The executor of a running job was lost: requeue it to resume from its
  // checkpoint, or fail it at the attempt cap or when the poison breaker
  // is open. `why` names the loss in the failure message.
  void failover(std::uint64_t id, const std::string& why);
  // Attributes an executor death to this job (feeds the poison breaker).
  void note_poison(std::uint64_t id);
  // First-wins terminal transition; false when the id is unknown, evicted
  // or already terminal (the result is dropped).
  bool finish(std::uint64_t id, JobState state, const JobResult& result);
  // Realizes kExpired for queued jobs — in the queue or held back — whose
  // deadline already passed.
  void shed_expired();
  // Fails every non-terminal job with kUnavailable.
  void fail_active(const std::string& why);

  bool cancel_requested(std::uint64_t id) const;
  // Running jobs cancelled since the last call, as (id, where) pairs.
  std::vector<std::pair<std::uint64_t, int>> take_cancels();
  std::size_t active() const;         // queued + running
  void set_gate(bool gated);          // holds blocking next() (pause)

  // Bumps a backend-specific counter (worker_deaths, restarts, ...).
  void count(std::uint64_t ServiceStats::*field, std::uint64_t n = 1);
  // Counters, queue depth (queue + held), in_flight (running) and the
  // tenancy block. Backends fill in threads and their supervision fields.
  ServiceStats stats() const;

 private:
  struct Rec {
    JobSpec spec;
    JobState state = JobState::kQueued;
    JobResult result;
    int attempts = 0;
    int where = -1;
    bool cancel = false;
    std::int64_t submit_ns = 0;
    std::int64_t start_ns = 0;
    std::int64_t deadline_ns = 0;
  };

  Rec* find_locked(std::uint64_t id);
  // Records the terminal and evicts past retention. A job with a checkpoint
  // stays counted in active_ and its path goes to `unlinks`; every caller
  // passes that to settle() once mu_ is released.
  void finish_locked(std::uint64_t id, Rec& rec, JobState state,
                     const JobResult& result, std::vector<std::string>& unlinks);
  // Unlinks the terminal jobs' checkpoints, releases them from active_ and
  // wakes waiters.
  void settle(const std::vector<std::string>& unlinks);

  JobTableOptions opts_;
  BoundedJobQueue queue_;
  TenantGovernor governor_;

  mutable std::mutex mu_;
  std::condition_variable cv_;  // any terminal transition
  std::unordered_map<std::uint64_t, Rec> jobs_;
  std::deque<std::uint64_t> retry_;  // failed-over / held jobs, first in line
  std::deque<std::uint64_t> terminal_order_;  // oldest terminal first
  std::vector<std::uint64_t> cancels_;        // running, not yet forwarded
  std::uint64_t next_id_ = 1;
  std::size_t active_ = 0;
  std::size_t running_ = 0;
  bool closed_ = false;
  ServiceStats stats_;
};

}  // namespace s35::service
