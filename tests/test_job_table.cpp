// JobTable: the job-record lifecycle every backend runs on — bounded
// retention, waits that end when their record is evicted, first-wins
// terminals, the failover attempt cap, checkpoint-path ownership and
// cancellation. Nothing here forks or runs a sweep, so the TSan leg runs
// this suite.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>

#include "service/job_table.h"

namespace s35 {
namespace {

using service::JobResult;
using service::JobSpec;
using service::JobState;
using service::JobTable;
using service::JobTableOptions;

JobSpec tiny_spec() {
  JobSpec spec;
  spec.nx = 8;
  spec.steps = 1;
  return spec;
}

// Admits, claims and starts one job; returns its id.
std::uint64_t start_one(JobTable& table) {
  const auto id = table.submit(tiny_spec());
  EXPECT_TRUE(id.ok()) << id.status().to_string();
  const auto claimed = table.next(0);
  EXPECT_TRUE(claimed.has_value());
  EXPECT_EQ(claimed->id, id.value());
  EXPECT_TRUE(table.start(id.value(), 0).has_value());
  return id.value();
}

bool exists(const std::string& path) { return ::access(path.c_str(), F_OK) == 0; }

void touch(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr) << path;
  std::fputs("stale", f);
  std::fclose(f);
}

std::string fresh_dir(const char* name) {
  std::string dir = ::testing::TempDir() + "/" + name + "-XXXXXX";
  EXPECT_NE(::mkdtemp(dir.data()), nullptr);
  return dir;
}

TEST(JobTableTest, RetentionEvictsOldestTerminal) {
  JobTableOptions o;
  o.retention = 2;
  JobTable table(o);
  std::uint64_t ids[3];
  for (auto& id : ids) {
    id = start_one(table);
    ASSERT_TRUE(table.finish(id, JobState::kDone, JobResult{}));
  }
  EXPECT_FALSE(table.info(ids[0]).has_value());  // evicted like an unknown id
  EXPECT_FALSE(table.wait(ids[0], 0).has_value());
  ASSERT_TRUE(table.info(ids[1]).has_value());
  EXPECT_EQ(table.info(ids[2])->state, JobState::kDone);
  const auto s = table.stats();
  EXPECT_EQ(s.submitted, 3u);
  EXPECT_EQ(s.completed, 3u);
  EXPECT_EQ(s.in_flight, 0u);
}

TEST(JobTableTest, WaitOnEvictedRecordReturns) {
  JobTableOptions o;
  o.retention = 1;
  JobTable table(o);
  const std::uint64_t first = start_one(table);
  ASSERT_TRUE(table.submit(tiny_spec()).ok());  // queued behind it

  auto waiter = std::async(std::launch::async, [&] { return table.wait(first, -1); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // Both terminals land under one lock, oldest first: the second evicts the
  // first before any waiter wakes, so the wait must end on a missing record.
  table.fail_active("test teardown");
  ASSERT_EQ(waiter.wait_for(std::chrono::seconds(10)), std::future_status::ready)
      << "wait() hung on an evicted record";
  EXPECT_FALSE(waiter.get().has_value());
  EXPECT_EQ(table.stats().failed, 2u);
  EXPECT_TRUE(table.drain(0));
}

TEST(JobTableTest, DuplicateTerminalIsDropped) {
  JobTable table(JobTableOptions{});
  const std::uint64_t id = start_one(table);
  JobResult r;
  r.crc = 0x1234;
  EXPECT_TRUE(table.finish(id, JobState::kDone, r));
  r.crc = 0x5678;
  EXPECT_FALSE(table.finish(id, JobState::kFailed, r));  // late duplicate
  EXPECT_FALSE(table.finish(999, JobState::kDone, r));   // unknown id
  const auto info = table.info(id);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, JobState::kDone);
  EXPECT_EQ(info->result.crc, 0x1234u);
  const auto s = table.stats();
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.failed, 0u);
}

TEST(JobTableTest, AttemptCapFailsJob) {
  JobTableOptions o;
  o.max_attempts = 2;
  JobTable table(o);
  const std::uint64_t id = start_one(table);

  table.failover(id, "executor lost");  // attempt 1 of 2: requeued
  ASSERT_EQ(table.info(id)->state, JobState::kQueued);
  const auto again = table.next(0);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->id, id);  // failed-over jobs are first in line
  ASSERT_TRUE(table.start(id, 1).has_value());

  table.failover(id, "executor lost again");  // attempt 2 of 2: abandoned
  const auto info = table.info(id);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, JobState::kFailed);
  EXPECT_EQ(info->result.error, fault::ErrorCode::kUnavailable);
  EXPECT_NE(info->result.message.find("abandoned after 2"), std::string::npos)
      << info->result.message;
  const auto s = table.stats();
  EXPECT_EQ(s.failovers, 1u);
  EXPECT_EQ(s.failed, 1u);
}

// A table with a checkpoint dir owns job-<id>.ckpt: a stale file from an
// earlier process is removed when the job is first claimed, before it can
// start; the job's own file at its terminal. A table without a dir never
// touches a client-given path.
TEST(JobTableTest, CheckpointPathClearedAtFirstClaimAndTerminal) {
  const std::string dir = fresh_dir("s35_table_ckpt");
  const std::string path = dir + "/job-1.ckpt";
  touch(path);

  JobTableOptions o;
  o.checkpoint_dir = dir;
  o.checkpoint_every = 3;
  JobTable table(o);
  const auto submitted = table.submit(tiny_spec());
  ASSERT_TRUE(submitted.ok());
  const std::uint64_t id = submitted.value();
  ASSERT_EQ(id, 1u);
  ASSERT_TRUE(table.next(0).has_value());
  EXPECT_FALSE(exists(path)) << "stale checkpoint survived the first claim";
  ASSERT_TRUE(table.start(id, 0).has_value());
  const auto info = table.info(id);
  EXPECT_EQ(info->spec.checkpoint_path, path);
  EXPECT_EQ(info->spec.checkpoint_every, 3);

  touch(path);  // the executor's own pass checkpoint
  table.failover(id, "executor lost");
  EXPECT_TRUE(table.info(id)->spec.resume);
  EXPECT_TRUE(exists(path)) << "failover must keep the checkpoint";
  ASSERT_TRUE(table.next(0).has_value());
  ASSERT_TRUE(table.start(id, 0).has_value());
  ASSERT_TRUE(table.finish(id, JobState::kDone, JobResult{}));
  EXPECT_FALSE(exists(path)) << "checkpoint survived the terminal";

  JobTable plain(JobTableOptions{});
  JobSpec spec = tiny_spec();
  spec.checkpoint_path = dir + "/client.ckpt";
  touch(spec.checkpoint_path);
  const auto pid = plain.submit(spec);
  ASSERT_TRUE(pid.ok());
  ASSERT_TRUE(plain.next(0).has_value());
  ASSERT_TRUE(plain.start(pid.value(), 0).has_value());
  ASSERT_TRUE(plain.finish(pid.value(), JobState::kDone, JobResult{}));
  EXPECT_TRUE(exists(spec.checkpoint_path));
  ::unlink(spec.checkpoint_path.c_str());
  ::rmdir(dir.c_str());
}

TEST(JobTableTest, CancelQueuedClaimedAndRunning) {
  JobTable table(JobTableOptions{});
  const std::uint64_t running = start_one(table);
  const auto claimed = table.submit(tiny_spec());
  const auto queued = table.submit(tiny_spec());
  ASSERT_TRUE(claimed.ok() && queued.ok());
  ASSERT_EQ(table.next(0)->id, claimed.value());

  EXPECT_TRUE(table.cancel(queued.value()));  // in line: terminal now
  EXPECT_EQ(table.info(queued.value())->state, JobState::kCancelled);

  EXPECT_TRUE(table.cancel(claimed.value()));  // out of line: start() ends it
  EXPECT_FALSE(table.start(claimed.value(), 0).has_value());
  EXPECT_EQ(table.info(claimed.value())->state, JobState::kCancelled);

  EXPECT_TRUE(table.cancel(running));  // running: the executor is told
  EXPECT_TRUE(table.cancel_requested(running));
  const auto forward = table.take_cancels();
  ASSERT_EQ(forward.size(), 1u);
  EXPECT_EQ(forward[0].first, running);
  EXPECT_TRUE(table.take_cancels().empty());  // forwarded once
  EXPECT_EQ(table.info(running)->state, JobState::kRunning);

  EXPECT_FALSE(table.cancel(queued.value()));  // already terminal
  EXPECT_FALSE(table.cancel(12345));           // unknown
  EXPECT_EQ(table.stats().cancelled, 2u);

  // A cancel that ends before it is forwarded is not forwarded later.
  const std::uint64_t quick = start_one(table);
  EXPECT_TRUE(table.cancel(quick));
  ASSERT_TRUE(table.finish(quick, JobState::kCancelled, JobResult{}));
  EXPECT_TRUE(table.take_cancels().empty());
}

}  // namespace
}  // namespace s35
