// Checks the benchmark's own measurement helpers (harness.h). Built next to
// the benchmark; run.py runs it after every build and refuses to measure
// when it fails. Exit code 0 = every check passed.
#include <cstdio>
#include <map>
#include <mutex>
#include <set>

#include "harness.h"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_percentile() {
  // 200 samples: p95 has exactly 10 above it (ranks 191..200).
  const auto p95 = pb::percentile(ramp(200), 0.95);
  expect(p95.has_value() && *p95 == 190.0, "p95 of 1..200 is 190");
  // 199 samples leave only 9 beyond p95: refused.
  expect(!pb::percentile(ramp(199), 0.95).has_value(), "p95 refused at 199");
  expect(!pb::percentile({}, 0.5).has_value(), "median of nothing refused");
  expect(pb::median(ramp(5)) == 3.0, "median of 1..5 is 3");
  expect(pb::percentile(ramp(1), 0.5).value_or(-1) == 1.0, "median of one sample");

  // Highest supported tail: 200 -> 0.95, 1000 -> 0.99, 10000 -> 0.999,
  // 100 -> 0.9, 40 -> 0.75, 20 -> none.
  expect(pb::highest_tail_quantile(200).value_or(0) == 0.95, "tail(200) = p95");
  expect(pb::highest_tail_quantile(1000).value_or(0) == 0.99, "tail(1000) = p99");
  expect(pb::highest_tail_quantile(10000).value_or(0) == 0.999, "tail(10000) = p99.9");
  expect(pb::highest_tail_quantile(100).value_or(0) == 0.9, "tail(100) = p90");
  expect(pb::highest_tail_quantile(40).value_or(0) == 0.75, "tail(40) = p75");
  expect(!pb::highest_tail_quantile(20).has_value(), "tail(20) refused");
  // Whatever tail is chosen, percentile() agrees it is supported.
  for (std::size_t n : {40u, 100u, 200u, 1000u}) {
    const double q = *pb::highest_tail_quantile(n);
    expect(pb::percentile(ramp(static_cast<int>(n)), q).has_value(),
           "chosen tail is accepted by percentile()");
  }
}

void test_self_time() {
  const std::int64_t ms = 1'000'000;
  pb::Tracer t(true);
  const int root = t.add("job", 0, 100 * ms);
  t.add("a", 10 * ms, 40 * ms, root);   // overlaps b by 10 ms
  t.add("b", 30 * ms, 60 * ms, root);
  t.add("c", 50 * ms, 55 * ms, 2);      // child of b, inside it
  t.add("d", 90 * ms, 130 * ms, root);  // sticks out past the parent
  t.add("leaf", 12 * ms, 20 * ms, 1);  // child of a
  const auto self = pb::self_seconds(t.spans());
  // Children cover [10,60) and [90,100): 60 ms; self = 100 - 60 = 40 ms.
  expect(std::abs(self[0] - 0.040) < 1e-12, "overlapping children counted once");
  expect(std::abs(self[1] - 0.022) < 1e-12, "a's self excludes its own child");
  expect(std::abs(self[2] - 0.025) < 1e-12, "b's self excludes nested c");
  expect(std::abs(self[5] - 0.008) < 1e-12, "a leaf's self is its duration");

  const auto by = pb::self_by_name(t.spans());
  expect(by.at("job").count == 1 && std::abs(by.at("job").total_s - 0.1) < 1e-12,
         "per-name totals");

  pb::Tracer off(false);
  expect(off.begin("x") == -1 && off.spans().empty(), "disabled tracer records nothing");
}

void test_tally() {
  pb::Tally t(nullptr);
  t.attempt();                     // e.g. a job rejected at admission
  t.fail("rejected at admission");
  t.check(true, "ok op");
  t.check(true, "ok op");
  t.check(false, "crc differs");
  expect(t.attempted() == 4, "every attempt counted, failed or not");
  expect(t.failed() == 2, "every failure counted");
  expect(t.error_rate() == 0.5, "error_rate = failed / attempted");
  pb::Tally empty;
  expect(empty.error_rate() == 0.0, "no attempts, no error rate");
}

void test_closed_loop() {
  std::mutex mu;
  std::map<long, int> submitted, waited;
  std::set<long> refused;
  int in_flight_max = 0, in_flight = 0;
  pb::LoopSpec<long> spec;
  spec.clients = 4;
  spec.seconds = 0.05;
  spec.min_jobs = 300;
  spec.submit = [&](long j) -> std::optional<long> {
    std::lock_guard<std::mutex> lock(mu);
    if (j % 7 == 3) {
      refused.insert(j);
      return std::nullopt;
    }
    ++submitted[j];
    in_flight_max = std::max(in_flight_max, ++in_flight);
    return j * 10;
  };
  spec.wait = [&](long j, const long& h) {
    std::lock_guard<std::mutex> lock(mu);
    expect(h == j * 10, "wait gets the handle submit returned");
    ++waited[j];
    --in_flight;
  };
  const double wall = pb::closed_loop(spec);
  expect(wall >= 0.05, "loop runs for at least its seconds");
  expect(submitted.size() + refused.size() >= 300, "loop issues at least min_jobs");
  bool once = submitted.size() == waited.size();
  for (const auto& [j, n] : submitted) once = once && n == 1 && waited[j] == 1;
  expect(once, "every submitted job is waited on exactly once");
  for (const long j : refused) expect(!waited.count(j), "refused jobs are not waited");
  expect(in_flight_max <= 4, "never more jobs in flight than clients");
}

}  // namespace

int main() {
  test_percentile();
  test_self_time();
  test_tally();
  test_closed_loop();
  if (g_failures == 0) std::puts("perfbench selftest: all checks passed");
  return g_failures == 0 ? 0 : 1;
}
