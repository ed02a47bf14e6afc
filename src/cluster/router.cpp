#include "cluster/router.h"

#include <algorithm>

#include "cluster/tcp.h"
#include "common/env.h"
#include "common/timer.h"
#include "service/json.h"
#include "service/service.h"
#include "service/wire.h"

namespace s35::cluster {

namespace {

namespace svc = s35::service;
namespace wire = s35::service::wire;
namespace json = s35::service::json;

// How long nodes get to acknowledge kDrain at shutdown.
constexpr int kNodeStopMs = 1000;

svc::MonitorConfig monitor_config(const RouterOptions& o) {
  svc::MonitorConfig c;
  c.tag = "s35-route";
  c.lost = "node connection lost";
  c.none_left = "no reachable nodes remain (all abandoned)";
  c.beat_ms = std::max(5, o.beat_ms);
  c.hang_ms = o.hang_ms;
  c.max_restarts = o.max_rejoins;
  c.backoff = o.backoff;
  c.stop_ms = kNodeStopMs;
  return c;
}

std::vector<std::string> node_names(const std::vector<std::string>& nodes) {
  std::vector<std::string> names;
  for (const std::string& n : nodes) names.push_back("node " + n);
  return names;
}

}  // namespace

RouterOptions RouterOptions::from_env() {
  RouterOptions o;
  const svc::ServiceOptions s = svc::ServiceOptions::from_env();
  o.queue_capacity = s.queue_capacity;
  o.max_points = s.max_points;
  o.tenancy = s.tenancy;
  const std::string nodes = env_string("S35_ROUTE_NODES", "");
  for (std::size_t at = 0; at < nodes.size();) {
    const std::size_t comma = nodes.find(',', at);
    const std::string one =
        nodes.substr(at, comma == std::string::npos ? comma : comma - at);
    if (!one.empty()) o.nodes.push_back(one);
    if (comma == std::string::npos) break;
    at = comma + 1;
  }
  o.beat_ms = static_cast<int>(env_int("S35_ROUTE_BEAT_MS", o.beat_ms));
  o.hang_ms = static_cast<int>(env_int("S35_ROUTE_HANG_MS", o.hang_ms));
  o.window = static_cast<int>(env_int("S35_ROUTE_WINDOW", o.window));
  o.vnodes = static_cast<int>(env_int("S35_ROUTE_VNODES", o.vnodes));
  o.max_rejoins =
      static_cast<int>(env_int("S35_ROUTE_MAX_REJOINS", o.max_rejoins));
  o.terminal_retention = static_cast<std::size_t>(env_int(
      "S35_ROUTE_RETENTION", static_cast<long>(o.terminal_retention)));
  o.checkpoint_dir = env_string("S35_SERVE_CKPT_DIR", o.checkpoint_dir);
  o.checkpoint_every =
      static_cast<int>(env_int("S35_SERVE_CKPT_EVERY", o.checkpoint_every));
  return o;
}

Router::Router(RouterOptions options)
    : Monitor(svc::table_options(options), monitor_config(options),
              node_names(options.nodes)),
      opts_(std::move(options)),
      plans_(std::max<std::size_t>(1, opts_.plan_cache_entries)),
      ring_(opts_.vnodes) {
  opts_.beat_ms = cfg_.beat_ms;
  opts_.window = std::max(1, opts_.window);
  if (!opts_.plan_cache_path.empty()) {
    // A corrupt/absent file means a cold cache, never a wrong plan.
    [[maybe_unused]] const fault::Status st = plans_.load(opts_.plan_cache_path);
  }
  start_monitor();
}

Router::~Router() { shutdown(); }

std::uint64_t Router::plan_version(const svc::PlanKey& key) const {
  const auto it = plan_ver_by_key_.find(key.hash());
  return it != plan_ver_by_key_.end() ? it->second : 0;
}

bool Router::start_peer(Peer& n) {
  std::string host;
  int port = 0;
  if (!split_host_port(address(n), &host, &port)) return false;
  n.fd = tcp_connect(host, port, opts_.connect_timeout_ms);
  return n.fd >= 0;  // live only once the node's kHello confirms the protocol
}

void Router::reap() {
  // A connection that never said hello within the dial timeout is dead.
  const std::int64_t now = steady_now_ns();
  for (Peer& n : peers_)
    if (n.fd >= 0 && !n.live &&
        (now - n.start_ns) / 1'000'000 > std::max(100, opts_.connect_timeout_ms))
      peer_down(n, Down::kLost);
}

void Router::detach(Peer& n, bool /*recycle*/) { ring_.remove(address(n)); }

void Router::halt(std::int64_t /*deadline_ns*/) {
  if (!opts_.plan_cache_path.empty()) {
    [[maybe_unused]] const fault::Status st = plans_.save(opts_.plan_cache_path);
  }
}

void Router::on_frame(Peer& n, wire::FrameType type, const std::string& payload) {
  switch (type) {
    case wire::FrameType::kHello:
      on_hello(n, payload);
      break;
    case wire::FrameType::kPlanPull:
      on_plan_pull(n, payload);
      break;
    case wire::FrameType::kPlanPush:
      on_plan_push(n, payload);
      break;
    case wire::FrameType::kReject:
      // Typed refusal: the node is shutting down, so the imminent EOF is a
      // departure, not a loss.
      n.departing = true;
      break;
    default:
      break;
  }
}

void Router::on_hello(Peer& n, const std::string& payload) {
  std::int64_t advertised = 0;
  json::get_int(payload, "jobs", &advertised);
  bring_up(n, advertised > 0
                  ? static_cast<int>(std::min<std::int64_t>(opts_.window, advertised))
                  : opts_.window);
  ring_.add(address(n));
  // Warm the (re)joined node with the full authoritative plan cache, so a
  // plan tuned anywhere is served from cache everywhere — including on a
  // node that was dead when the plan was first broadcast.
  for (const svc::PlanCache::Entry& e : plans_.entries()) {
    if (!wire::write_frame(n.fd, wire::FrameType::kPlanPush,
                           wire::plan_entry_to_json(e.key, e.plan, plan_version(e.key))))
      break;  // EOF will surface through the normal read path
  }
}

void Router::on_plan_pull(Peer& n, const std::string& payload) {
  svc::PlanKey key;
  if (!wire::plan_key_from_json(payload, &key)) return;
  if (const auto plan = plans_.lookup(key)) {
    wire::write_frame(n.fd, wire::FrameType::kPlanPush,
                      wire::plan_entry_to_json(key, *plan, plan_version(key)));
  } else {
    // Explicit miss so the node's bounded wait ends now, not at timeout.
    std::string s = wire::plan_key_to_json(key);
    s.insert(1, "\"miss\":true,");
    wire::write_frame(n.fd, wire::FrameType::kPlanPush, s);
  }
}

void Router::on_plan_push(Peer& n, const std::string& payload) {
  svc::PlanKey key;
  svc::CachedPlan plan;
  std::uint64_t ver = 0;
  if (!wire::plan_entry_from_json(payload, &key, &plan, &ver)) return;
  // First tune wins: if the key is already stamped, correct the sender with
  // the authoritative entry instead of forking plan history.
  if (const auto have = plans_.lookup(key)) {
    wire::write_frame(n.fd, wire::FrameType::kPlanPush,
                      wire::plan_entry_to_json(key, *have, plan_version(key)));
    return;
  }
  const std::uint64_t stamped = ++plan_ver_;
  plan_ver_by_key_[key.hash()] = stamped;
  plans_.insert(key, plan);
  const std::string entry = wire::plan_entry_to_json(key, plan, stamped);
  for (const Peer& other : peers_)
    if (other.live && other.index != n.index)
      wire::write_frame(other.fd, wire::FrameType::kPlanPush, entry);
}

Router::Peer* Router::owner_with_room(std::uint64_t shape) {
  const std::string owner = ring_.owner(shape);
  for (Peer& n : peers_)
    if (address(n) == owner)
      return n.live && static_cast<int>(n.jobs.size()) < n.window ? &n : nullptr;
  return nullptr;  // no live nodes yet
}

void Router::dispatch() {
  // Failed-over and held-back jobs come first (their checkpoints are
  // cooling), then fresh queue pops. Strict shape affinity: the ring owner
  // or nothing. A job whose owner has no window room is held back — that is
  // what keeps repeat shapes on the node whose plan cache and warm grids
  // already serve them. Fresh pops stop once the round's claims reach the
  // cluster's free capacity, so at most about that many jobs wait outside
  // the queue: its capacity bound ("queue full") and its priority/DRR order
  // keep holding when one owner is saturated.
  std::size_t free = 0;
  for (const Peer& n : peers_)
    if (n.live && static_cast<int>(n.jobs.size()) < n.window)
      free += static_cast<std::size_t>(n.window) - n.jobs.size();
  std::vector<std::uint64_t> held;
  std::size_t placed = 0;
  const auto place = [&](const svc::JobTable::Job& claimed) {
    Peer* n = owner_with_room(claimed.spec.shape_key());
    if (n == nullptr) {
      held.push_back(claimed.id);
      return;
    }
    const auto job = table_.start(claimed.id, n->index);
    if (!job) return;  // cancelled or expired while queued
    ++placed;
    assign(*n, job->id, wire::spec_to_json(job->id, job->spec));
  };
  while (const auto claimed = table_.next_retry()) place(*claimed);
  while (placed + held.size() < free) {
    const auto claimed = table_.next(0);
    if (!claimed) break;
    place(*claimed);
  }
  table_.hold(held);
}

}  // namespace s35::cluster
