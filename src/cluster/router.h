// Shard router: the multi-node serving plane.
//
// The third JobBackend, one level above the Supervisor: where the
// supervisor forks worker processes on one machine, the router connects to
// `s35 serve --tcp` nodes over the cluster transport (tcp.h) and
// multiplexes client jobs across them through the same wire frames. The
// supervision idioms carry over unchanged — a node SIGKILL looks exactly
// like a worker SIGKILL one level up:
//
//   placement   a consistent-hash ring (ring.h) over the live nodes maps
//               each job's shape_key to its owner, so repeat shapes land on
//               the node whose plan cache and warm grid pool already hold
//               them; membership changes move only ~1/N of shapes.
//   death       EOF/hang on a node connection. The socket is drained before
//               any job is declared lost (a result written microseconds
//               before the kill is still a result), then every in-flight
//               job on that node fails over to the ring successor — with
//               resume=true, so it restarts from its last pass-boundary
//               checkpoint in the shared checkpoint_dir, bit-exact.
//   hang        beats carry the node's pass-progress counter; a node with
//               in-flight work whose progress is stale past hang_ms is
//               disconnected and failed over.
//   exactly-once terminal state is recorded once per job id (first wins);
//               duplicate results from a failover racing a slow socket are
//               dropped.
//   rejoin      dead nodes are re-dialed on capped+jittered backoff
//               (fault::retry) and abandoned after max_rejoins; a rejoining
//               node is re-added to the ring and immediately warmed with
//               the full authoritative plan cache.
//
// Plan replication: the router owns the authoritative PlanCache. Writes
// (kPlanPush ver=0 from a node that tuned locally) are stamped with a
// monotonic version and broadcast to every other live node; reads
// (kPlanPull on a node-local miss) are answered from the cache or with an
// explicit miss. First tune wins: a second node racing the same key gets
// the already-stamped entry back instead of forking plan history.
//
// Admission (tenant quotas, DRR fairness, brownout, poison quarantine),
// terminals, failover and retention run on the same JobTable (job_table.h)
// the other planes use; nodes receive only admitted, checkpoint-annotated
// specs.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/ring.h"
#include "fault/retry.h"
#include "fault/status.h"
#include "service/backend.h"
#include "service/job.h"
#include "service/job_table.h"
#include "service/plan_cache.h"
#include "service/tenancy.h"

namespace s35::cluster {

struct RouterOptions {
  std::vector<std::string> nodes;  // "host:port" per node, fixed membership
  int beat_ms = 50;                // expected node heartbeat period
  int hang_ms = 5000;       // progress-staleness disconnect threshold; 0 = off
  int connect_timeout_ms = 1000;  // per dial attempt
  int max_rejoins = 3;            // consecutive losses before a node is abandoned
  int max_job_attempts = 3;       // dispatches per job, before it fails
  int vnodes = 64;                // ring points per node
  int window = 2;                 // max in-flight jobs per node (hello may lower)
  fault::RetryPolicy backoff;     // node re-dial schedule
  // Failover checkpoints land here as job-<id>.ckpt. Must be reachable by
  // every node (same machine or shared filesystem); empty disables
  // checkpointing (failover then restarts from step 0 — still bit-exact).
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  std::size_t queue_capacity = 64;
  long max_points = 16L * 1024 * 1024;
  // Terminal job records kept queryable via info()/wait(); older ones are
  // erased so a long-lived router does not grow per submitted job.
  std::size_t terminal_retention = 4096;
  service::TenancyOptions tenancy;
  // Authoritative plan cache (replicated to nodes).
  std::size_t plan_cache_entries = 256;
  std::string plan_cache_path;  // "" = in-memory only

  // Honors S35_ROUTE_NODES (comma-separated), S35_ROUTE_BEAT_MS,
  // S35_ROUTE_HANG_MS, S35_ROUTE_WINDOW, S35_ROUTE_VNODES,
  // S35_ROUTE_RETENTION plus the shared S35_SERVE_QUEUE /
  // S35_SERVE_CKPT_DIR / S35_SERVE_CKPT_EVERY and the tenancy knobs (via
  // ServiceOptions::from_env).
  static RouterOptions from_env();
};

class Router : public service::JobBackend {
 public:
  explicit Router(RouterOptions options);
  ~Router() override;  // shutdown(): graceful drain, then detach from nodes

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  fault::Expected<std::uint64_t> submit(const service::JobSpec& spec) override;
  bool cancel(std::uint64_t id) override;
  std::optional<service::JobInfo> info(std::uint64_t id) const override {
    return table_.info(id);
  }
  std::optional<service::JobInfo> wait(std::uint64_t id,
                                       std::int64_t timeout_ms = -1) override {
    return table_.wait(id, timeout_ms);
  }
  bool drain(std::int64_t timeout_ms = -1) override { return table_.drain(timeout_ms); }
  // Supervision fields are reused one level up: workers = configured nodes,
  // worker_deaths = node connection losses, restarts = successful rejoins.
  service::ServiceStats stats() const override;

  // Graceful drain: stops admission, finishes every accepted job (failing
  // over across node deaths throughout), asks nodes to drain this router's
  // work, disconnects. Nodes keep running. Idempotent.
  void shutdown() override;

  const RouterOptions& options() const { return opts_; }

 private:
  struct NodeSlot {
    int index = 0;
    std::string address;
    int fd = -1;       // connected socket; may predate the hello
    std::string acc;   // partial wire frames
    bool live = false;  // hello received; in the ring
    bool abandoned = false;
    bool drained = false;
    std::uint64_t rejoins = 0;  // connection losses + failed dials
    int window = 0;             // min(opts.window, hello's advertised jobs)
    std::vector<std::uint64_t> jobs;  // outer ids in flight on this node
    std::uint64_t progress = 0;
    std::int64_t progress_ns = 0;
    std::int64_t beat_ns = 0;
    std::int64_t reconnect_at_ns = 0;  // backoff deadline while disconnected
    std::int64_t dial_ns = 0;          // when the current fd was connected
  };

  void monitor_loop();
  void try_connect(NodeSlot& n);
  void handle_frame(NodeSlot& n, std::uint32_t type, const std::string& payload);
  void on_hello(NodeSlot& n, const std::string& payload);
  void on_result(NodeSlot& n, const std::string& payload);
  void on_plan_pull(NodeSlot& n, const std::string& payload);
  void on_plan_push(NodeSlot& n, const std::string& payload);
  void node_down(NodeSlot& n, bool expected);
  void dispatch();
  // The live ring owner of `shape` when it has window room, else nullptr.
  NodeSlot* owner_with_room(std::uint64_t shape);
  void wake();
  NodeSlot* slot_by_address(const std::string& address);
  std::uint64_t plan_version(const service::PlanKey& key) const;

  RouterOptions opts_;
  service::JobTable table_;
  service::PlanCache plans_;  // authoritative; replicated to nodes
  HashRing ring_;             // live nodes only; monitor thread mutates
  std::vector<NodeSlot> slots_;
  int wake_fds_[2] = {-1, -1};

  mutable std::mutex mu_;  // slot metadata, plan versions
  std::uint64_t plan_ver_ = 0;  // replication version stamp, monotonic
  std::unordered_map<std::uint64_t, std::uint64_t> plan_ver_by_key_;

  std::atomic<bool> stopping_{false};
  std::thread monitor_;
};

}  // namespace s35::cluster
