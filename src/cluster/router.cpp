#include "cluster/router.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "cluster/tcp.h"
#include "common/env.h"
#include "common/timer.h"
#include "service/json.h"
#include "service/service.h"
#include "service/wire.h"

#ifdef __unix__
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>
#include <cerrno>
#endif

namespace s35::cluster {

namespace {

namespace svc = s35::service;
namespace wire = s35::service::wire;
namespace json = s35::service::json;

svc::JobTableOptions table_options(const RouterOptions& o) {
  svc::JobTableOptions t;
  t.max_points = o.max_points;
  t.queue_capacity = o.queue_capacity;
  t.tenancy = o.tenancy;
  t.checkpoint_dir = o.checkpoint_dir;
  t.checkpoint_every = o.checkpoint_every;
  t.max_attempts = o.max_job_attempts;
  t.retention = o.terminal_retention;
  return t;
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

#ifdef __unix__

Router::Router(RouterOptions options)
    : opts_(std::move(options)),
      table_(table_options(opts_)),
      plans_(std::max<std::size_t>(1, opts_.plan_cache_entries)),
      ring_(opts_.vnodes) {
  if (opts_.beat_ms < 5) opts_.beat_ms = 5;
  if (opts_.window < 1) opts_.window = 1;
  if (!opts_.plan_cache_path.empty()) {
    // A corrupt/absent file means a cold cache, never a wrong plan.
    [[maybe_unused]] const fault::Status st = plans_.load(opts_.plan_cache_path);
  }
  if (::pipe(wake_fds_) != 0) {
    std::perror("s35-route: wake pipe");
    wake_fds_[0] = wake_fds_[1] = -1;
  } else {
    for (const int fd : wake_fds_)
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  }
  slots_.resize(opts_.nodes.size());
  for (std::size_t i = 0; i < opts_.nodes.size(); ++i) {
    slots_[i].index = static_cast<int>(i);
    slots_[i].address = opts_.nodes[i];
  }
  monitor_ = std::thread(&Router::monitor_loop, this);
}

Router::~Router() { shutdown(); }

void Router::wake() {
  if (wake_fds_[1] >= 0) {
    const char b = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &b, 1);
  }
}

Router::NodeSlot* Router::slot_by_address(const std::string& address) {
  for (NodeSlot& n : slots_)
    if (n.address == address) return &n;
  return nullptr;
}

std::uint64_t Router::plan_version(const svc::PlanKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = plan_ver_by_key_.find(key.hash());
  return it != plan_ver_by_key_.end() ? it->second : 0;
}

fault::Expected<std::uint64_t> Router::submit(const svc::JobSpec& spec) {
  const auto id = table_.submit(spec);
  if (id.ok()) wake();
  return id;
}

bool Router::cancel(std::uint64_t id) {
  if (!table_.cancel(id)) return false;
  wake();  // the monitor forwards a running job's cancel to its node
  return true;
}

svc::ServiceStats Router::stats() const {
  svc::ServiceStats out = table_.stats();
  out.workers = static_cast<int>(opts_.nodes.size());
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t now = steady_now_ns();
  for (const NodeSlot& n : slots_) {
    if (!n.live) continue;
    ++out.workers_live;
    out.max_heartbeat_age_ms =
        std::max(out.max_heartbeat_age_ms, (now - n.beat_ns) / 1'000'000);
  }
  return out;
}

void Router::on_hello(NodeSlot& n, const std::string& payload) {
  std::int64_t advertised = 0;
  json::get_int(payload, "jobs", &advertised);
  const std::int64_t now = steady_now_ns();
  {
    std::lock_guard<std::mutex> lock(mu_);
    n.live = true;
    n.drained = false;
    n.window = advertised > 0
                   ? std::min(opts_.window, static_cast<int>(advertised))
                   : opts_.window;
    n.progress_ns = now;
    n.beat_ns = now;
  }
  if (n.rejoins > 0) table_.count(&svc::ServiceStats::restarts);
  ring_.add(n.address);
  // Warm the (re)joined node with the full authoritative plan cache, so a
  // plan tuned anywhere is served from cache everywhere — including on a
  // node that was dead when the plan was first broadcast.
  for (const svc::PlanCache::Entry& e : plans_.entries()) {
    if (!wire::write_frame(n.fd, wire::FrameType::kPlanPush,
                           wire::plan_entry_to_json(e.key, e.plan, plan_version(e.key))))
      break;  // EOF will surface through the normal read path
  }
}

void Router::on_result(NodeSlot& n, const std::string& payload) {
  std::uint64_t id = 0;
  svc::JobState state = svc::JobState::kFailed;
  svc::JobResult r;
  if (!wire::result_from_json(payload, &id, &state, &r)) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = std::find(n.jobs.begin(), n.jobs.end(), id);
    if (it == n.jobs.end()) return;  // stale frame from a previous assignment
    n.jobs.erase(it);
  }
  // Integrity escalation: the node's in-process ladder gave up; its address
  // space is not trusted anymore. Fail the job over and recycle the
  // connection — the node re-dials through rejoin backoff, and placement
  // avoids it meanwhile. (The router cannot restart a remote process; the
  // operator or a per-machine supervisor owns that.)
  if (state == svc::JobState::kFailed &&
      r.error == fault::ErrorCode::kSdcDetected) {
    table_.count(&svc::ServiceStats::sdc_escalations);
    table_.failover(id, "SDC escalation: " + r.message);
    node_down(n, true);  // expected: no death counters, immediate redial
    return;
  }
  table_.finish(id, state, r);
}

void Router::on_plan_pull(NodeSlot& n, const std::string& payload) {
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

void Router::on_plan_push(NodeSlot& n, const std::string& payload) {
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
  std::uint64_t stamped = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stamped = ++plan_ver_;
    plan_ver_by_key_[key.hash()] = stamped;
  }
  plans_.insert(key, plan);
  const std::string entry = wire::plan_entry_to_json(key, plan, stamped);
  for (NodeSlot& other : slots_)
    if (other.live && other.fd >= 0 && other.index != n.index)
      wire::write_frame(other.fd, wire::FrameType::kPlanPush, entry);
}

void Router::handle_frame(NodeSlot& n, std::uint32_t type,
                          const std::string& payload) {
  switch (static_cast<wire::FrameType>(type)) {
    case wire::FrameType::kHello:
      on_hello(n, payload);
      break;
    case wire::FrameType::kBeat: {
      std::int64_t p = 0;
      const std::int64_t now = steady_now_ns();
      std::lock_guard<std::mutex> lock(mu_);
      n.beat_ns = now;
      if (json::get_int(payload, "progress", &p) &&
          static_cast<std::uint64_t>(p) != n.progress) {
        n.progress = static_cast<std::uint64_t>(p);
        n.progress_ns = now;
      }
      break;
    }
    case wire::FrameType::kResult:
      on_result(n, payload);
      break;
    case wire::FrameType::kPlanPull:
      on_plan_pull(n, payload);
      break;
    case wire::FrameType::kPlanPush:
      on_plan_push(n, payload);
      break;
    case wire::FrameType::kReject: {
      // Typed refusal: the node is shutting down. Treat the connection as
      // drained so the imminent EOF counts as an expected departure.
      std::lock_guard<std::mutex> lock(mu_);
      n.drained = true;
      break;
    }
    case wire::FrameType::kDrained: {
      std::lock_guard<std::mutex> lock(mu_);
      n.drained = true;
      break;
    }
    default:
      break;
  }
}

void Router::node_down(NodeSlot& n, bool expected) {
  // Deliver-before-declare: drain every frame the node managed to write
  // before the connection died. A completed result in the socket means the
  // job is done — failing it over would run it twice.
  if (n.fd >= 0) {
    std::vector<wire::Frame> frames;
    wire::drain_frames(n.fd, &n.acc, &frames);
    for (const wire::Frame& f : frames)
      handle_frame(n, static_cast<std::uint32_t>(f.type), f.payload);
    ::close(n.fd);
  }
  std::vector<std::uint64_t> lost;
  bool died = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A post-hello connection loss is a node death; a connection that never
    // said hello (silent dial, or a redial that raced the dying process's
    // teardown and EOF'd immediately) is a failed dial — it advances the
    // rejoin counter toward abandonment but must not inflate the death
    // statistics.
    died = n.live && !expected;
    n.fd = -1;
    n.live = false;
    n.acc.clear();
    lost.swap(n.jobs);
    if (!expected) ++n.rejoins;
    if (stopping_.load(std::memory_order_acquire)) {
      n.reconnect_at_ns = 0;
    } else if (n.rejoins > static_cast<std::uint64_t>(opts_.max_rejoins)) {
      n.abandoned = true;
      std::fprintf(stderr, "s35-route: node %s abandoned after %llu losses\n",
                   n.address.c_str(),
                   static_cast<unsigned long long>(n.rejoins - 1));
    } else {
      const auto delay = fault::backoff_delay_jittered(
          opts_.backoff,
          n.rejoins > 0 ? static_cast<int>(n.rejoins - 1) : 0,
          static_cast<std::uint64_t>(n.index));
      n.reconnect_at_ns =
          steady_now_ns() +
          std::chrono::duration_cast<std::chrono::nanoseconds>(delay).count();
    }
  }
  ring_.remove(n.address);
  if (died) table_.count(&svc::ServiceStats::worker_deaths);
  // Poison attribution only when exactly one job was in flight: with several
  // the signal is ambiguous, and a flaky node must not indict every tenant
  // that happened to be scheduled on it.
  if (lost.size() == 1 && !expected) table_.note_poison(lost.front());
  for (const std::uint64_t id : lost) table_.failover(id, "node connection lost");
}

void Router::try_connect(NodeSlot& n) {
  std::string host;
  int port = 0;
  if (!split_host_port(n.address, &host, &port)) {
    std::lock_guard<std::mutex> lock(mu_);
    n.abandoned = true;
    return;
  }
  const int fd = tcp_connect(host, port, opts_.connect_timeout_ms);
  const std::int64_t now = steady_now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  if (fd < 0) {
    ++n.rejoins;
    if (n.rejoins > static_cast<std::uint64_t>(opts_.max_rejoins)) {
      n.abandoned = true;
      std::fprintf(stderr, "s35-route: node %s unreachable, abandoned\n",
                   n.address.c_str());
    } else {
      const auto delay = fault::backoff_delay_jittered(
          opts_.backoff, static_cast<int>(n.rejoins - 1),
          static_cast<std::uint64_t>(n.index));
      n.reconnect_at_ns =
          now +
          std::chrono::duration_cast<std::chrono::nanoseconds>(delay).count();
    }
    return;
  }
  n.fd = fd;
  n.acc.clear();
  n.dial_ns = now;
  n.beat_ns = now;
  n.progress_ns = now;
  n.reconnect_at_ns = 0;
  // live stays false until the node's kHello confirms the protocol.
}

Router::NodeSlot* Router::owner_with_room(std::uint64_t shape) {
  const std::string owner = ring_.owner(shape);
  if (owner.empty()) return nullptr;  // no live nodes yet
  NodeSlot* n = slot_by_address(owner);
  if (n == nullptr || !n->live || n->fd < 0) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(n->jobs.size()) < n->window ? n : nullptr;
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
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const NodeSlot& n : slots_)
      if (n.live && static_cast<int>(n.jobs.size()) < n.window)
        free += static_cast<std::size_t>(n.window) - n.jobs.size();
  }
  std::vector<std::uint64_t> held, broken;
  std::size_t placed = 0;
  const auto place = [&](const svc::JobTable::Job& claimed) {
    NodeSlot* n = owner_with_room(claimed.spec.shape_key());
    if (n == nullptr) {
      held.push_back(claimed.id);
      return;
    }
    const auto job = table_.start(claimed.id, n->index);
    if (!job) return;  // cancelled or expired while queued
    ++placed;
    {
      std::lock_guard<std::mutex> lock(mu_);
      n->jobs.push_back(job->id);
      if (n->jobs.size() == 1) n->progress_ns = steady_now_ns();
    }
    if (!wire::write_frame(n->fd, wire::FrameType::kSubmit,
                           wire::spec_to_json(job->id, job->spec))) {
      // Socket already broken: undo the assignment; the read path will see
      // the EOF. Requeued after this round, so it is not re-claimed here.
      broken.push_back(job->id);
      std::lock_guard<std::mutex> lock(mu_);
      n->jobs.erase(std::find(n->jobs.begin(), n->jobs.end(), job->id));
    }
  };
  while (const auto claimed = table_.next_retry()) place(*claimed);
  while (placed + held.size() < free) {
    const auto claimed = table_.next(0);
    if (!claimed) break;
    place(*claimed);
  }
  for (const std::uint64_t id : broken) table_.requeue(id);
  table_.hold(held);
}

void Router::monitor_loop() {
  std::vector<pollfd> pfds;
  std::vector<int> slot_of;  // pfds index -> slot index (-1 = wake pipe)

  while (true) {
    const bool stopping = stopping_.load(std::memory_order_acquire);

    // Dial nodes that are due (initial connect and rejoin backoff).
    if (!stopping) {
      const std::int64_t now = steady_now_ns();
      for (NodeSlot& n : slots_) {
        bool due = false;
        {
          std::lock_guard<std::mutex> lock(mu_);
          due = n.fd < 0 && !n.abandoned && now >= n.reconnect_at_ns;
        }
        if (due) try_connect(n);
      }
    }

    pfds.clear();
    slot_of.clear();
    if (wake_fds_[0] >= 0) {
      pfds.push_back({wake_fds_[0], POLLIN, 0});
      slot_of.push_back(-1);
    }
    for (const NodeSlot& n : slots_)
      if (n.fd >= 0) {
        pfds.push_back({n.fd, POLLIN, 0});
        slot_of.push_back(n.index);
      }

    ::poll(pfds.data(), pfds.size(), std::max(5, opts_.beat_ms / 2));

    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (slot_of[i] < 0) {
        char buf[64];
        while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      NodeSlot& n = slots_[static_cast<std::size_t>(slot_of[i])];
      bool down = false;
      for (;;) {
        if (n.fd < 0) break;
        wire::Frame f;
        const int got = wire::read_frame(n.fd, &n.acc, &f, 0);
        if (got == 1) {
          handle_frame(n, static_cast<std::uint32_t>(f.type), f.payload);
          continue;
        }
        down = got < 0;
        break;
      }
      if (down) node_down(n, n.drained || stopping);
    }

    const std::int64_t now = steady_now_ns();

    // A connection that never said hello within the dial timeout is dead.
    for (NodeSlot& n : slots_) {
      bool stale = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        stale = n.fd >= 0 && !n.live &&
                (now - n.dial_ns) / 1'000'000 >
                    std::max(100, opts_.connect_timeout_ms);
      }
      if (stale) node_down(n, false);
    }

    // Hang detection: progress staleness, not beat arrival — a node whose
    // heartbeat thread beats while its jobs are frozen is still hung.
    if (opts_.hang_ms > 0) {
      for (NodeSlot& n : slots_) {
        bool hung = false;
        {
          std::lock_guard<std::mutex> lock(mu_);
          hung = n.live && !n.jobs.empty() &&
                 (now - n.progress_ns) / 1'000'000 > opts_.hang_ms;
        }
        if (hung) {
          table_.count(&svc::ServiceStats::hang_kills);
          std::fprintf(stderr,
                       "s35-route: node %s hung (progress stale %d ms), "
                       "disconnecting\n",
                       n.address.c_str(), opts_.hang_ms);
          node_down(n, false);
        }
      }
    }

    // Forward cancels of running jobs (queued ones ended at cancel()).
    for (const auto& [id, slot] : table_.take_cancels()) {
      const NodeSlot& n = slots_[static_cast<std::size_t>(slot)];
      if (n.live && n.fd >= 0)
        wire::write_frame(n.fd, wire::FrameType::kCancel,
                          "{\"job\":" + std::to_string(id) + "}");
    }

    if (!stopping) {
      table_.shed_expired();
      dispatch();
    }

    // No execution capacity left? Fail what remains instead of hanging
    // clients forever.
    {
      bool any_capacity = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (const NodeSlot& n : slots_)
          if (!n.abandoned) any_capacity = true;
      }
      if (!any_capacity && table_.active() > 0)
        table_.fail_active("no reachable nodes remain (all abandoned)");
    }

    if (stopping) {
      // Graceful detach: every job is already terminal (shutdown drained
      // first). Ask nodes to drain this router's work, give them a moment
      // to acknowledge, then disconnect. The nodes keep running.
      for (NodeSlot& n : slots_)
        if (n.live && n.fd >= 0)
          wire::write_frame(n.fd, wire::FrameType::kDrain, "{}");
      const std::int64_t deadline = steady_now_ns() + 1'000'000'000ll;  // 1 s
      while (steady_now_ns() < deadline) {
        bool pending = false;
        for (NodeSlot& n : slots_) {
          if (n.fd < 0 || !n.live) continue;
          wire::Frame f;
          while (n.fd >= 0 && wire::read_frame(n.fd, &n.acc, &f, 0) == 1)
            handle_frame(n, static_cast<std::uint32_t>(f.type), f.payload);
          std::lock_guard<std::mutex> lock(mu_);
          if (!n.drained) pending = true;
        }
        if (!pending) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      for (NodeSlot& n : slots_) {
        if (n.fd >= 0) ::close(n.fd);
        n.fd = -1;
        n.live = false;
        ring_.remove(n.address);
      }
      return;
    }
  }
}

void Router::shutdown() {
  if (!table_.close()) return;  // stops admission; queued jobs stay dispatchable
  wake();
  // Graceful drain: every accepted job reaches a terminal state while the
  // monitor keeps dispatching, failing over, and redialing nodes.
  table_.drain(-1);
  stopping_.store(true, std::memory_order_release);
  wake();
  if (monitor_.joinable()) monitor_.join();
  if (!opts_.plan_cache_path.empty()) {
    [[maybe_unused]] const fault::Status st = plans_.save(opts_.plan_cache_path);
  }
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
  wake_fds_[0] = wake_fds_[1] = -1;
}

#else  // !__unix__

Router::Router(RouterOptions options)
    : opts_(std::move(options)), table_(table_options(opts_)), plans_(1), ring_(1) {
  std::fprintf(stderr, "s35-route: cluster routing requires POSIX\n");
}
Router::~Router() = default;
fault::Expected<std::uint64_t> Router::submit(const svc::JobSpec&) {
  return fault::Status(fault::ErrorCode::kUnavailable,
                       "cluster routing requires POSIX");
}
bool Router::cancel(std::uint64_t) { return false; }
svc::ServiceStats Router::stats() const { return {}; }
void Router::shutdown() {}
void Router::monitor_loop() {}
void Router::try_connect(NodeSlot&) {}
void Router::handle_frame(NodeSlot&, std::uint32_t, const std::string&) {}
void Router::on_hello(NodeSlot&, const std::string&) {}
void Router::on_result(NodeSlot&, const std::string&) {}
void Router::on_plan_pull(NodeSlot&, const std::string&) {}
void Router::on_plan_push(NodeSlot&, const std::string&) {}
void Router::node_down(NodeSlot&, bool) {}
void Router::dispatch() {}
Router::NodeSlot* Router::owner_with_room(std::uint64_t) { return nullptr; }
void Router::wake() {}
Router::NodeSlot* Router::slot_by_address(const std::string&) {
  return nullptr;
}
std::uint64_t Router::plan_version(const svc::PlanKey&) const { return 0; }

#endif

}  // namespace s35::cluster
