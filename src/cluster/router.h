// Shard router: the multi-node serving plane.
//
// The third JobBackend, one level above the Supervisor: where the
// supervisor forks worker processes on one machine, the router dials
// `s35 serve --tcp` nodes over the cluster transport (tcp.h) and multiplexes
// client jobs across them on the same monitor skeleton (service/monitor.h).
// Death, hang, escalation, exactly-once delivery and the re-dial backoff are
// the skeleton's; a node SIGKILL looks exactly like a worker SIGKILL one
// level up. What is the router's own:
//
//   dial         a node joins once its kHello confirms the protocol; a
//                connection silent past the connect timeout counts as a
//                failed dial. The hello's advertised window caps the
//                router's.
//   placement    a consistent-hash ring (ring.h) over the live nodes maps
//                each job's shape_key to its owner, so repeat shapes land on
//                the node whose plan cache and warm grid pool already hold
//                them; membership changes move only ~1/N of shapes. Failed-
//                over jobs resume on the ring successor from their
//                pass-boundary checkpoint in the shared checkpoint_dir.
//   recycle      the router cannot restart a remote process: a recycled node
//                is disconnected and re-dialed, and placement avoids it
//                meanwhile. A kReject (node shutting down) makes its EOF a
//                departure, not a loss.
//   stop         nodes outlive the router: kDrain finishes this router's
//                work there, the router disconnects after kDrained or 1 s.
//
// Plan replication: the router owns the authoritative PlanCache. Writes
// (kPlanPush ver=0 from a node that tuned locally) are stamped with a
// monotonic version and broadcast to every other live node; reads
// (kPlanPull on a node-local miss) are answered from the cache or with an
// explicit miss. First tune wins: a second node racing the same key gets
// the already-stamped entry back instead of forking plan history. A
// (re)joining node is warmed with the full cache.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/ring.h"
#include "fault/retry.h"
#include "service/monitor.h"
#include "service/plan_cache.h"
#include "service/tenancy.h"

namespace s35::cluster {

struct RouterOptions {
  std::vector<std::string> nodes;  // "host:port" per node, fixed membership
  int beat_ms = 50;                // expected node heartbeat period
  int hang_ms = 5000;       // progress-staleness disconnect threshold; 0 = off
  int connect_timeout_ms = 1000;  // per dial attempt
  int max_rejoins = 3;            // losses + failed dials before a node is abandoned
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

class Router : public service::Monitor {
 public:
  explicit Router(RouterOptions options);
  ~Router() override;  // shutdown(): graceful drain, then detach from nodes

  const RouterOptions& options() const { return opts_; }

 private:
  bool start_peer(Peer& n) override;
  void on_frame(Peer& n, service::wire::FrameType type,
                const std::string& payload) override;
  void detach(Peer& n, bool recycle) override;
  void reap() override;
  void dispatch() override;
  void halt(std::int64_t deadline_ns) override;

  void on_hello(Peer& n, const std::string& payload);
  void on_plan_pull(Peer& n, const std::string& payload);
  void on_plan_push(Peer& n, const std::string& payload);
  // The live ring owner of `shape` when it has window room, else nullptr.
  Peer* owner_with_room(std::uint64_t shape);
  const std::string& address(const Peer& n) const {
    return opts_.nodes[static_cast<std::size_t>(n.index)];
  }
  std::uint64_t plan_version(const service::PlanKey& key) const;

  // All state below belongs to the monitor thread.
  RouterOptions opts_;
  service::PlanCache plans_;  // authoritative; replicated to nodes
  HashRing ring_;             // live nodes only
  std::uint64_t plan_ver_ = 0;  // replication version stamp, monotonic
  std::unordered_map<std::uint64_t, std::uint64_t> plan_ver_by_key_;
};

}  // namespace s35::cluster
