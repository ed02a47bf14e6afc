// JobService: resident multi-tenant execution of stencil sweeps.
//
// One-shot `s35 run` pays the full cold path on every invocation: measure
// the machine, tune a blocking plan, spawn and pin a thread team, touch the
// grids into place — all before the first useful update. The service keeps
// those assets resident and multiplexes jobs over them:
//
//   * the job table (job_table.h) provides admission control over a
//     bounded priority queue, per-job deadlines, cancellation and the
//     terminal bookkeeping every backend shares;
//   * a plan cache (plan_cache.h) memoizes autotuner/planner output, with
//     optional on-disk persistence across restarts;
//   * one warm core::Engine35 (its parallel::ThreadTeam never respawns) runs
//     every job; jobs of equal shape are batched back-to-back so the grid
//     buffers — already NUMA-placed by the team — are reused too;
//   * per-job resilience: an audit job runs through the verified-run ladder
//     of src/integrity (sampled scalar audits, ring sentinels, in-memory
//     re-execution on SDC) with a per-job monitor, and the service watchdog
//     flags stuck phases.
//
// Threading model: submit/cancel/info/wait/stats are safe from any thread;
// a single internal worker executes jobs in queue order. The worker is the
// SPMD caller-participant of the engine's team, so job execution itself
// uses every configured core.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "core/engine.h"
#include "fault/status.h"
#include "grid/grid3.h"
#include "integrity/watchdog.h"
#include "machine/descriptor.h"
#include "service/backend.h"
#include "service/job.h"
#include "service/job_table.h"
#include "service/plan_cache.h"

namespace s35::service {

struct ServiceOptions {
  int threads = 0;                  // SPMD width; 0 = hardware concurrency
  std::size_t queue_capacity = 64;  // admission limit
  std::size_t plan_cache_entries = 128;
  std::string plan_cache_path;      // "" = in-memory only
  int watchdog_ms = 0;              // per-phase stall deadline for audit jobs
  int max_dim_t = 4;                // planning bound when a job leaves dim_t = 0
  long max_points = 16L * 1024 * 1024;  // admission cap on nx*ny*nz
  // Machine identity for plan keys/tuning. Empty name = probe the host once
  // at construction (machine::host()).
  machine::Descriptor mach;

  // Tenancy / overload resilience (tenancy.h). Default-off: admission and
  // scheduling are byte-identical to the pre-tenancy service.
  TenancyOptions tenancy;

  // Pass-boundary hook, called after every completed blocked pass (and any
  // checkpoint save for that pass) with the job's id and spec and the
  // number of steps completed so far. A non-ok return fails the job with
  // that status. The frame executor (executor.h) uses this to publish
  // liveness progress and to evaluate injected process faults; the
  // checkpoint-before-hook ordering guarantees a kill fired at pass p
  // leaves the pass-p checkpoint behind for failover.
  std::function<fault::Status(std::uint64_t job, const JobSpec& spec, int steps_done)>
      pass_hook;

  // Cluster plan replication (cluster/node.h). On a local plan-cache miss,
  // plan_fetch may produce the plan from elsewhere (the shard router's
  // authoritative cache) — it is tried before the expensive compute_plan
  // and its result is inserted locally and counted as a cache hit. After a
  // local tune, plan_publish ships the fresh plan out (router stamping +
  // broadcast). Both default-unset: the standalone service plans exactly as
  // before.
  std::function<std::optional<CachedPlan>(const PlanKey& key)> plan_fetch;
  std::function<void(const PlanKey& key, const CachedPlan& plan)> plan_publish;

  // Honors S35_SERVE_THREADS, S35_SERVE_QUEUE, S35_SERVE_PLAN_CACHE,
  // S35_SERVE_WATCHDOG_MS, S35_SERVE_MAX_DIMT, and the tenancy knobs
  // S35_SERVE_TENANT_RATE / TENANT_BURST / TENANT_INFLIGHT / TENANT_SHARE /
  // BROWNOUT / QUARANTINE / QUARANTINE_COOLDOWN_MS.
  static ServiceOptions from_env();
};

class JobService : public JobBackend {
 public:
  explicit JobService(ServiceOptions options = {});
  ~JobService() override;  // shutdown(): drains queued jobs, saves the plan cache

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  // Admission: validates the spec (known kernel, sane dims, points cap) and
  // enqueues. Fails with kMismatch on an invalid spec, kUnavailable when the
  // queue is full or the service is shutting down. Returns the job id.
  fault::Expected<std::uint64_t> submit(const JobSpec& spec) override {
    return table_.submit(spec);
  }

  // Cancels a job: removed from the queue when still queued; when running,
  // the worker observes the flag at the next pass boundary (results stay
  // bit-exact — passes are never torn). False if already terminal/unknown.
  bool cancel(std::uint64_t id) override { return table_.cancel(id); }

  // Snapshot of a job; nullopt for unknown (or retention-evicted) ids.
  std::optional<JobInfo> info(std::uint64_t id) const override {
    return table_.info(id);
  }

  // Blocks until the job reaches a terminal state (timeout_ms < 0 = forever).
  // nullopt on timeout or unknown id.
  std::optional<JobInfo> wait(std::uint64_t id,
                              std::int64_t timeout_ms = -1) override {
    return table_.wait(id, timeout_ms);
  }

  // Blocks until every submitted job is terminal. False on timeout.
  bool drain(std::int64_t timeout_ms = -1) override { return table_.drain(timeout_ms); }

  // Pauses/resumes the worker *between* jobs — tests use this to stack the
  // queue deterministically before anything runs.
  void set_paused(bool paused) { table_.set_gate(paused); }

  // The shared backend stats type (backend.h); supervision fields stay zero
  // for the in-process service.
  using Stats = ServiceStats;
  Stats stats() const override;

  PlanCache& plan_cache() { return plan_cache_; }
  const ServiceOptions& options() const { return opts_; }

  // Stops admission, drains already-queued jobs, joins the worker, saves the
  // plan cache when a path is configured. Idempotent.
  void shutdown() override;

 private:
  void worker_loop();
  void execute(const JobTable::Job& job);
  fault::Status run_job(const JobTable::Job& job, JobResult& out);

  ServiceOptions opts_;
  std::unique_ptr<core::Engine35> engine_;
  PlanCache plan_cache_;
  JobTable table_;
  integrity::Watchdog watchdog_;

  // Warm buffer pool: the last job's grids, reused when shapes match.
  std::unique_ptr<grid::GridPair<float>> pool_;
  std::uint64_t pool_shape_ = 0;

  std::thread worker_;
};

}  // namespace s35::service
