// The monitor's fault paths, driven through a Router without forking: the
// nodes are scripted in-thread fakes that speak wire.h frames over
// cluster::tcp_listen sockets, so every case is deterministic and the suite
// runs under ThreadSanitizer. Covered:
//
//   hang          a node beats with frozen progress; it is recycled and its
//                 job fails over and completes on the other node;
//   escalation    a kSdcDetected result recycles the node without counting
//                 a death; it is re-dialed and says hello again;
//   unreachable   every node is abandoned after its dial budget and the
//                 active job fails instead of waiting forever;
//   conformance   the shared backend scenario against a Router over two
//                 in-thread serve_node listeners.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "backend_scenario.h"
#include "cluster/node.h"
#include "cluster/ring.h"
#include "cluster/router.h"
#include "cluster/tcp.h"
#include "common/timer.h"
#include "service/json.h"
#include "service/wire.h"

namespace s35 {
namespace {

namespace wire = service::wire;
using cluster::Router;
using cluster::RouterOptions;
using service::JobSpec;
using service::JobState;

constexpr int kBeatMs = 10;
constexpr std::uint32_t kFakeCrc = 0xC0FFEEu;

struct Bound {
  int fd = -1;
  std::string address;
};

Bound bind_port() {
  Bound b;
  int port = 0;
  b.fd = cluster::tcp_listen("127.0.0.1", 0, &port);
  EXPECT_GE(b.fd, 0);
  b.address = "127.0.0.1:" + std::to_string(port);
  return b;
}

// An address nothing listens on: bound once, then closed.
std::string closed_address() {
  const Bound b = bind_port();
  ::close(b.fd);
  return b.address;
}

// A node that answers from a script instead of running jobs. One thread
// serves every connection the router dials.
class FakeNode {
 public:
  enum class Script {
    kComplete,  // answers each submit with a done result (crc kFakeCrc)
    kHang,      // keeps each submit and beats with frozen progress
    kSdc,       // answers each submit with a kSdcDetected failure
    kHangUp,    // accepts each dial and closes it before any hello
  };

  FakeNode(Bound bound, Script script)
      : address(bound.address), lfd_(bound.fd), script_(script) {
    thread_ = std::thread([this] { run(); });
  }
  ~FakeNode() {
    stop_.store(true);
    thread_.join();
  }

  const std::string address;
  std::atomic<int> dials{0};
  std::atomic<int> hellos{0};
  std::atomic<int> submits{0};

 private:
  struct Conn {
    int fd = -1;
    std::string acc;
  };

  void on_frame(Conn& c, const wire::Frame& f) {
    if (f.type == wire::FrameType::kDrain) {
      wire::write_frame(c.fd, wire::FrameType::kDrained, "{}");
      return;
    }
    if (f.type != wire::FrameType::kSubmit) return;
    ++submits;
    std::int64_t job = 0;
    service::json::get_int(f.payload, "job", &job);
    service::JobResult r;
    if (script_ == Script::kComplete) {
      r.crc = kFakeCrc;
      wire::write_frame(c.fd, wire::FrameType::kResult,
                        wire::result_to_json(static_cast<std::uint64_t>(job),
                                             JobState::kDone, r));
    } else if (script_ == Script::kSdc) {
      r.error = fault::ErrorCode::kSdcDetected;
      r.message = "scripted SDC";
      wire::write_frame(c.fd, wire::FrameType::kResult,
                        wire::result_to_json(static_cast<std::uint64_t>(job),
                                             JobState::kFailed, r));
    }
  }

  void run() {
    std::vector<Conn> conns;
    std::uint64_t progress = 0;
    std::int64_t last_beat_ns = 0;
    while (!stop_.load()) {
      for (int fd; (fd = cluster::tcp_accept(lfd_)) >= 0;) {
        ++dials;
        if (script_ == Script::kHangUp) {
          ::close(fd);
          continue;
        }
        wire::write_frame(fd, wire::FrameType::kHello,
                          "{\"node\":\"" + address + "\",\"jobs\":2}");
        ++hellos;
        conns.push_back({fd, ""});
      }
      for (Conn& c : conns) {
        wire::Frame f;
        int got = 0;
        while ((got = wire::read_frame(c.fd, &c.acc, &f, 0)) == 1) on_frame(c, f);
        if (got < 0) {
          ::close(c.fd);
          c.fd = -1;
        }
      }
      std::erase_if(conns, [](const Conn& c) { return c.fd < 0; });
      const std::int64_t now = steady_now_ns();
      if (now - last_beat_ns >= kBeatMs * 1'000'000ll) {
        last_beat_ns = now;
        // A hung node keeps beating; only its progress stands still.
        if (script_ != Script::kHang) ++progress;
        const std::string beat =
            "{\"job\":0,\"progress\":" + std::to_string(progress) + "}";
        for (const Conn& c : conns) wire::write_frame(c.fd, wire::FrameType::kBeat, beat);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    for (const Conn& c : conns) ::close(c.fd);
    ::close(lfd_);
  }

  int lfd_;
  Script script_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

RouterOptions router_options(const std::vector<std::string>& nodes) {
  RouterOptions ro;
  ro.nodes = nodes;
  ro.beat_ms = kBeatMs;
  ro.connect_timeout_ms = 2000;
  ro.vnodes = 64;
  return ro;
}

bool wait_for(const std::function<bool()>& done, int timeout_ms = 20'000) {
  for (int i = 0; i < timeout_ms / 5; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

JobSpec fake_spec() { return conformance::pinned_spec(16, 4, 5); }

// Two fake nodes: the spec's ring owner runs `owner`, the other completes.
struct FakePair {
  std::unique_ptr<FakeNode> owner;
  std::unique_ptr<FakeNode> other;

  explicit FakePair(FakeNode::Script script) {
    Bound a = bind_port(), b = bind_port();
    cluster::HashRing ring(64);
    ring.add(a.address);
    ring.add(b.address);
    if (ring.owner(fake_spec().shape_key()) != a.address) std::swap(a, b);
    owner = std::make_unique<FakeNode>(a, script);
    other = std::make_unique<FakeNode>(b, FakeNode::Script::kComplete);
  }
  std::vector<std::string> addresses() const { return {owner->address, other->address}; }
};

// Both nodes in the ring before any job, so placement is the ring owner.
void wait_live(Router& router, int nodes) {
  ASSERT_TRUE(wait_for([&] { return router.stats().workers_live == nodes; }))
      << "live nodes: " << router.stats().workers_live;
}

// ------------------------------------------------------------------ faults

TEST(MonitorFaults, HungNodeIsRecycledAndItsJobFailsOver) {
  FakePair nodes(FakeNode::Script::kHang);
  RouterOptions ro = router_options(nodes.addresses());
  ro.hang_ms = 200;
  Router router(ro);
  wait_live(router, 2);

  const auto id = router.submit(fake_spec());
  ASSERT_TRUE(id.ok()) << id.status().to_string();
  const auto done = router.wait(id.value(), 20'000);
  ASSERT_TRUE(done.has_value());
  ASSERT_EQ(done->state, JobState::kDone) << done->result.message;
  EXPECT_EQ(done->result.crc, kFakeCrc);

  const auto s = router.stats();
  EXPECT_EQ(s.hang_kills, 1u);
  EXPECT_EQ(s.worker_deaths, 1u);
  EXPECT_EQ(s.failovers, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(nodes.owner->submits.load(), 1);
  EXPECT_EQ(nodes.other->submits.load(), 1);
}

TEST(MonitorFaults, SdcEscalationRecyclesNodeWithoutCountingADeath) {
  FakePair nodes(FakeNode::Script::kSdc);
  Router router(router_options(nodes.addresses()));
  wait_live(router, 2);

  const auto id = router.submit(fake_spec());
  ASSERT_TRUE(id.ok()) << id.status().to_string();
  const auto done = router.wait(id.value(), 20'000);
  ASSERT_TRUE(done.has_value());
  ASSERT_EQ(done->state, JobState::kDone) << done->result.message;
  EXPECT_EQ(done->result.crc, kFakeCrc);

  // The recycled node is re-dialed and rejoins the ring.
  EXPECT_TRUE(wait_for([&] { return router.stats().restarts >= 1; }));
  wait_live(router, 2);
  const auto s = router.stats();
  EXPECT_EQ(s.sdc_escalations, 1u);
  EXPECT_EQ(s.worker_deaths, 0u);
  EXPECT_EQ(s.restarts, 1u);
  EXPECT_EQ(s.failovers, 1u);
  EXPECT_EQ(nodes.owner->dials.load(), 2);
  EXPECT_EQ(nodes.owner->hellos.load(), 2);
}

// A node is dialed once plus max_rejoins re-dials, whether the dial is
// refused or answered by a peer that hangs up before its hello. Then the
// node is abandoned, and with every node abandoned the job fails.
TEST(MonitorFaults, UnreachableNodesAreAbandonedAndActiveJobsFail) {
  FakeNode hang_up(bind_port(), FakeNode::Script::kHangUp);
  RouterOptions ro = router_options({closed_address(), hang_up.address});
  ro.max_rejoins = 2;
  Router router(ro);

  const auto id = router.submit(fake_spec());
  ASSERT_TRUE(id.ok()) << id.status().to_string();
  const auto done = router.wait(id.value(), 20'000);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->state, JobState::kFailed);
  EXPECT_EQ(done->result.error, fault::ErrorCode::kUnavailable);
  EXPECT_NE(done->result.message.find("no reachable nodes remain"), std::string::npos)
      << done->result.message;

  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // no late dials
  EXPECT_EQ(hang_up.dials.load(), 1 + ro.max_rejoins);
  const auto s = router.stats();
  EXPECT_EQ(s.workers_live, 0);
  EXPECT_EQ(s.worker_deaths, 0u);
  EXPECT_EQ(s.restarts, 0u);
  EXPECT_EQ(s.failed, 1u);
}

// ------------------------------------------------------------- conformance

TEST(MonitorConformance, RouterOverInThreadNodes) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  std::vector<std::string> addresses;
  for (int i = 0; i < 2; ++i) {
    const Bound b = bind_port();
    cluster::NodeOptions no;
    no.name = b.address;
    no.beat_ms = kBeatMs;
    no.service = conformance::exec_options();
    threads.emplace_back([fd = b.fd, no, &stop] { cluster::serve_node(fd, no, &stop); });
    addresses.push_back(b.address);
  }
  {
    Router router(router_options(addresses));
    wait_live(router, 2);
    conformance::run_scenario(router, /*capacity=*/2);
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
}

}  // namespace
}  // namespace s35
