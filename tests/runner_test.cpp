// Concurrent-run isolation: SweepRunner executes independent SimCluster
// runs on a thread pool, and the determinism contract (docs/TRACING.md)
// must survive that — a point's trace digest, counters, simulated time,
// and event count may depend only on its configuration, never on which
// thread ran it or what ran beside it.  These tests execute the same
// seeded scenarios serially and pooled and assert bit-identical results;
// CI additionally runs this binary under ThreadSanitizer
// (ACC_SANITIZE=thread) so any cross-run shared-state access is a hard
// failure, not a flaky digest.
#include <gtest/gtest.h>

#include <algorithm>

#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "apps/cluster.hpp"
#include "apps/fft_app.hpp"
#include "apps/sort_app.hpp"
#include "runner/bench_json.hpp"
#include "runner/suites.hpp"
#include "runner/sweep.hpp"

namespace acc {
namespace {

using runner::RunMetrics;
using runner::RunPoint;
using runner::RunRecord;
using runner::SweepRunner;

RunMetrics traced_sort_metrics(apps::Interconnect ic, std::size_t keys,
                               std::size_t p, std::uint64_t seed) {
  apps::SimCluster cluster(p, ic);
  cluster.tracer().enable(/*ring_capacity=*/256);
  apps::SortRunOptions opts;
  opts.seed = seed;
  const auto r = apps::run_parallel_sort(cluster, keys, opts);
  EXPECT_TRUE(r.verified);
  RunMetrics m;
  m.sim_time = r.total;
  m.digest = cluster.tracer().digest();
  m.trace_records = cluster.tracer().records_emitted();
  m.events = cluster.engine().events_executed();
  m.counters = {{"count_sort_ns", r.count_sort.as_nanos()},
                {"redistribution_ns", r.redistribution.as_nanos()}};
  return m;
}

RunPoint sort_point(std::size_t p, std::uint64_t seed) {
  return RunPoint{"isolation",
                  "sort/P=" + std::to_string(p) +
                      "/seed=" + std::to_string(seed),
                  {{"P", std::to_string(p)}, {"seed", std::to_string(seed)}},
                  [p, seed] {
                    return traced_sort_metrics(apps::Interconnect::kInicIdeal,
                                               1 << 12, p, seed);
                  }};
}

void expect_identical(const RunRecord& a, const RunRecord& b) {
  EXPECT_EQ(a.name, b.name);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(a.metrics.digest, b.metrics.digest) << a.name;
  EXPECT_EQ(a.metrics.trace_records, b.metrics.trace_records) << a.name;
  EXPECT_EQ(a.metrics.sim_time, b.metrics.sim_time) << a.name;
  EXPECT_EQ(a.metrics.events, b.metrics.events) << a.name;
  EXPECT_EQ(a.metrics.counters, b.metrics.counters) << a.name;
}

// ---------------------------------------------------------------------
// Serial vs pooled execution of the same seeded scenarios
// ---------------------------------------------------------------------

TEST(SweepRunner, PooledRunReproducesSerialDigestsAndCounters) {
  std::vector<RunPoint> points;
  for (std::size_t p : {1, 2, 4}) {
    for (std::uint64_t seed : {7u, 8u, 9u}) {
      points.push_back(sort_point(p, seed));
    }
  }
  const auto serial = SweepRunner(/*threads=*/1).run(points);
  const auto pooled = SweepRunner(/*threads=*/4).run(points);
  ASSERT_EQ(serial.size(), points.size());
  ASSERT_EQ(pooled.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_identical(pooled[i], serial[i]);
  }
}

TEST(SweepRunner, IdenticalPointsSideBySideStayIsolated) {
  // Eight copies of the *same* scenario racing on four threads: any
  // cross-run contamination (shared RNG, shared counters, shared trace
  // state) would make at least one copy disagree with the others.
  std::vector<RunPoint> points;
  for (int i = 0; i < 8; ++i) points.push_back(sort_point(4, /*seed=*/7));
  const auto results = SweepRunner(/*threads=*/4).run(points);
  const auto reference = SweepRunner(/*threads=*/1).run({sort_point(4, 7)});
  for (const auto& r : results) expect_identical(r, reference[0]);
}

/// The registry's reduced grid, run pooled and serially once per process
/// — the work `bench_all --points=reduced --check-digests` does.
struct ReducedSweep {
  std::vector<RunPoint> points;
  std::vector<RunRecord> pooled;
  std::vector<RunRecord> serial;
};

const ReducedSweep& reduced_sweep() {
  static const ReducedSweep sweep = [] {
    ReducedSweep s;
    for (const auto& suite : runner::suites()) {
      for (auto& p : suite.points(/*reduced=*/true)) {
        s.points.push_back(std::move(p));
      }
    }
    s.pooled = SweepRunner(/*threads=*/4).run(s.points);
    s.serial = SweepRunner(/*threads=*/1).run(s.points);
    return s;
  }();
  return sweep;
}

TEST(SweepRunner, FigureSweepPointsReproduceSeriallyWhenPooled) {
  const ReducedSweep& sweep = reduced_sweep();
  ASSERT_GT(sweep.points.size(), 10u);
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
#ifndef ACC_TRACE_DISABLED
    ASSERT_GT(sweep.serial[i].metrics.trace_records, 0u)
        << sweep.serial[i].name;
#endif
    expect_identical(sweep.pooled[i], sweep.serial[i]);
  }
}

// ---------------------------------------------------------------------
// Suite registry and gates
// ---------------------------------------------------------------------

const runner::Suite& suite_named(const std::string& name) {
  for (const auto& suite : runner::suites()) {
    if (suite.name == name) return suite;
  }
  throw std::out_of_range("no suite " + name);
}

std::vector<RunRecord> reduced_records(const std::string& suite) {
  std::vector<RunRecord> out;
  for (const auto& r : reduced_sweep().serial) {
    if (r.suite == suite) out.push_back(r);
  }
  return out;
}

/// The first record whose params include every (key, value) pair.
RunRecord* record_with(
    std::vector<RunRecord>& records,
    const std::vector<std::pair<std::string, std::string>>& params) {
  for (auto& r : records) {
    bool match = true;
    for (const auto& [key, value] : params) match &= r.param(key) == value;
    if (match) return &r;
  }
  return nullptr;
}

void set_counter(RunRecord& r, const std::string& name, std::int64_t value) {
  for (auto& [key, v] : r.metrics.counters) {
    if (key == name) v = value;
  }
}

TEST(Suites, NamesAreUniqueAndMatchTheirPoints) {
  std::set<std::string> names;
  for (const auto& suite : runner::suites()) {
    EXPECT_TRUE(names.insert(suite.name).second) << suite.name;
    for (const bool reduced : {true, false}) {
      const auto points = suite.points(reduced);
      EXPECT_FALSE(points.empty()) << suite.name;
      for (const auto& p : points) EXPECT_EQ(p.suite, suite.name) << p.name;
    }
  }
}

TEST(Suites, EveryColumnReadsACounterItsPointsEmit) {
  // RunRecord::counter() reads 0 for an unknown name, so a misspelled
  // column would print zeros without this check.
  for (const auto& suite : runner::suites()) {
    for (const auto& r : reduced_records(suite.name)) {
      if (!r.ok) continue;
      for (const auto& c : suite.columns) {
        const bool emitted = std::any_of(
            r.metrics.counters.begin(), r.metrics.counters.end(),
            [&](const auto& kv) { return kv.first == c.counter; });
        EXPECT_TRUE(emitted) << suite.name << "/" << r.name << " lacks "
                             << c.counter;
      }
    }
  }
}

TEST(Suites, EveryGatePassesOnTheReducedGrid) {
  int gates = 0;
  for (const auto& suite : runner::suites()) {
    if (suite.gate == nullptr) continue;
    ++gates;
    const auto records = reduced_records(suite.name);
    ASSERT_FALSE(records.empty()) << suite.name;
    EXPECT_EQ(suite.gate(records), 0) << suite.name;
  }
  EXPECT_EQ(gates, 3);
}

TEST(Suites, TailGateFailsWhenNicP99TiesHostUnderLoss) {
  auto records = reduced_records("serving_tail");
  RunRecord* nic = record_with(records, {{"plane", "nic"}, {"chaos", "loss30"}});
  ASSERT_NE(nic, nullptr);
  const RunRecord* host =
      record_with(records, {{"plane", "host"},
                            {"topology", nic->param("topology")},
                            {"rate_hz", nic->param("rate_hz")},
                            {"chaos", "loss30"}});
  ASSERT_NE(host, nullptr);
  nic->metrics.latency.p99_ns = host->metrics.latency.p99_ns;
  EXPECT_EQ(suite_named("serving_tail").gate(records), 1);
}

TEST(Suites, HostCostGateFailsWhenNicCpuEventsTieHost) {
  auto records = reduced_records("collectives");
  RunRecord* nic = record_with(records, {{"collective_backend", "nic"}});
  ASSERT_NE(nic, nullptr);
  const RunRecord* host =
      record_with(records, {{"collective_backend", "host"},
                            {"topology", nic->param("topology")},
                            {"P", nic->param("P")}});
  ASSERT_NE(host, nullptr);
  set_counter(*nic, "host_cpu_events", host->counter("host_cpu_events"));
  EXPECT_EQ(suite_named("collectives").gate(records), 1);
}

TEST(Suites, RecoveryGateFailsWithFewerEpochsThanCuts) {
  auto records = reduced_records("failover_recovery");
  ASSERT_FALSE(records.empty());
  RunRecord& r = records.front();
  set_counter(r, "route_epochs", std::stoll(r.param("cuts")) - 1);
  EXPECT_EQ(suite_named("failover_recovery").gate(records), 1);
}

// ---------------------------------------------------------------------
// Runner mechanics
// ---------------------------------------------------------------------

TEST(SweepRunner, ResultsKeepSubmissionOrder) {
  std::vector<RunPoint> points;
  for (int i = 0; i < 16; ++i) {
    points.push_back(RunPoint{"order",
                              "p" + std::to_string(i),
                              {},
                              [i] {
                                RunMetrics m;
                                m.events = static_cast<std::uint64_t>(i);
                                return m;
                              }});
  }
  const auto results = SweepRunner(/*threads=*/4).run(points);
  ASSERT_EQ(results.size(), points.size());
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(results[i].name, "p" + std::to_string(i));
    EXPECT_EQ(results[i].metrics.events, static_cast<std::uint64_t>(i));
  }
}

TEST(SweepRunner, ThrowingBodyIsCapturedNotFatal) {
  std::vector<RunPoint> points;
  points.push_back(RunPoint{"err", "boom", {}, []() -> RunMetrics {
                              throw std::runtime_error("exploded");
                            }});
  points.push_back(sort_point(2, 7));
  const auto results = SweepRunner(/*threads=*/2).run(points);
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].error, "exploded");
  EXPECT_TRUE(results[1].ok) << results[1].error;
}

TEST(SweepRunner, ZeroThreadsPicksHardwareConcurrency) {
  EXPECT_GE(SweepRunner(0).threads(), 1u);
  EXPECT_EQ(SweepRunner(3).threads(), 3u);
}

TEST(BenchJson, DigestHexIsStable16Digits) {
  EXPECT_EQ(runner::digest_hex(0), "0000000000000000");
  EXPECT_EQ(runner::digest_hex(0xdeadbeefcafef00dULL), "deadbeefcafef00d");
}

TEST(BenchJson, NonFiniteNumbersSerializeAsNull) {
  // JSON has no inf/nan literals; a record whose speedup divided by a
  // zero-duration run must still produce a parseable document.
  RunRecord r;
  r.suite = "s";
  r.name = "p";
  r.ok = true;
  r.metrics.speedup = std::numeric_limits<double>::infinity();
  r.wall_ms = std::numeric_limits<double>::quiet_NaN();
  std::ostringstream os;
  runner::write_bench_json(os, {r}, {});
  const std::string json = os.str();
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  EXPECT_NE(json.find("\"speedup\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"wall_ms\": null"), std::string::npos) << json;
}

TEST(BenchJson, SchemaV6EmitsLatencyObjectOnlyWhenPresent) {
  RunRecord with;
  with.suite = "s";
  with.name = "serving";
  with.ok = true;
  with.metrics.latency.present = true;
  with.metrics.latency.count = 128;
  with.metrics.latency.p50_ns = 1000;
  with.metrics.latency.p99_ns = 9000;
  with.metrics.latency.p999_ns = 12000;
  with.metrics.latency.mean_ns = 1500;
  with.metrics.latency.max_ns = 12345;
  with.metrics.latency.goodput_bytes_per_sec = 7777;
  RunRecord without;
  without.suite = "s";
  without.name = "batch";
  without.ok = true;
  std::ostringstream os;
  runner::write_bench_json(os, {with, without}, {});
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"acc-bench-results/v6\""),
            std::string::npos);
  EXPECT_NE(json.find("\"latency\": {\"count\": 128, \"p50_ns\": 1000, "
                      "\"p99_ns\": 9000, \"p999_ns\": 12000, "
                      "\"mean_ns\": 1500, \"max_ns\": 12345, "
                      "\"goodput_bytes_per_sec\": 7777}"),
            std::string::npos)
      << json;
  // Exactly one latency object: the batch point must not emit one.
  EXPECT_EQ(json.find("\"latency\""), json.rfind("\"latency\"")) << json;
}

TEST(BenchJson, SchemaV6EmitsTraceRecordsForEveryPointThatRan) {
  RunRecord traced;
  traced.suite = "s";
  traced.name = "traced";
  traced.ok = true;
  traced.metrics.trace_records = 4242;
  RunRecord untraced;
  untraced.suite = "s";
  untraced.name = "untraced";
  untraced.ok = true;
  RunRecord failed;
  failed.suite = "s";
  failed.name = "failed";
  failed.error = "boom";
  std::ostringstream os;
  runner::write_bench_json(os, {traced, untraced, failed}, {});
  const std::string json = os.str();
  EXPECT_NE(json.find("\"trace_records\": 4242,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"trace_records\": 0,"), std::string::npos) << json;
  // Two points ran; the failed one carries only its error and wall clock.
  std::size_t count = 0;
  for (auto at = json.find("\"trace_records\""); at != std::string::npos;
       at = json.find("\"trace_records\"", at + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 2u) << json;
}

TEST(RunRecord, EventsPerSecGuardsDegenerateRecords) {
  RunRecord r;
  r.ok = true;
  r.metrics.events = 1000;
  r.wall_ns = 0;  // timer too coarse to see the body: no division
  EXPECT_EQ(r.events_per_sec(), 0.0);
  r.wall_ns = 1000000;
  r.metrics.events = 0;
  EXPECT_EQ(r.events_per_sec(), 0.0);
  r.metrics.events = 1000;
  r.ok = false;
  EXPECT_EQ(r.events_per_sec(), 0.0);
  r.ok = true;
  // 1000 events over 1 ms of wall clock.
  EXPECT_DOUBLE_EQ(r.events_per_sec(), 1e6);
}

TEST(RunRecord, EventsPerSecIgnoresShardBusyTime) {
  // A parallel-engine point's throughput is its events over its own wall
  // clock, barrier and mailbox time included; the per-shard busy times
  // are reported beside it and never divided into it.
  RunRecord r;
  r.ok = true;
  r.wall_ns = 8000000;
  r.metrics.events = 3000;
  r.metrics.shards = {{1000, 1000000}, {1500, 2000000}, {500, 500000}};
  EXPECT_DOUBLE_EQ(r.events_per_sec(), 3000.0 * 1e9 / 8e6);
  r.wall_ns = 0;
  EXPECT_EQ(r.events_per_sec(), 0.0);
}

TEST(RunRecord, ThreadScalingDerivesFromTheSameShapesOneThreadRecord) {
  auto record = [](std::string suite, std::string shape, std::size_t threads,
                   std::uint64_t wall_ns) {
    RunRecord r;
    r.suite = std::move(suite);
    r.name = shape + "/threads=" + std::to_string(threads);
    r.params = {{"shape", shape}, {"threads", std::to_string(threads)}};
    r.ok = true;
    r.wall_ns = wall_ns;
    r.metrics.threads = threads;
    return r;
  };
  std::vector<RunRecord> records = {
      record("s", "a", 1, 8000), record("s", "a", 2, 2000),
      record("s", "a", 4, 4000), record("s", "b", 4, 1000),
      record("t", "a", 2, 1000)};
  runner::derive_thread_scaling(records);
  EXPECT_EQ(records[0].metrics.speedup, 0.0);  // the baseline itself
  EXPECT_DOUBLE_EQ(records[1].metrics.speedup, 4.0);
  EXPECT_DOUBLE_EQ(records[1].metrics.scaling_efficiency, 2.0);
  EXPECT_DOUBLE_EQ(records[2].metrics.speedup, 2.0);
  EXPECT_DOUBLE_EQ(records[2].metrics.scaling_efficiency, 0.5);
  // No threads=1 sibling: another shape, or the same shape in another
  // suite, never serves as the baseline.
  EXPECT_EQ(records[3].metrics.speedup, 0.0);
  EXPECT_EQ(records[4].metrics.speedup, 0.0);
}

TEST(BenchJson, SchemaV5EmitsParallelFieldsOnlyForParallelPoints) {
  RunRecord parallel;
  parallel.suite = "s";
  parallel.name = "par";
  parallel.ok = true;
  parallel.metrics.threads = 4;
  parallel.metrics.scaling_efficiency = 0.525;
  parallel.metrics.shards = {{1000, 1000000}, {2000, 3000000}};
  RunRecord serial;
  serial.suite = "s";
  serial.name = "ser";
  serial.ok = true;  // defaults: threads = 1, no efficiency, no shards
  std::ostringstream os;
  runner::write_bench_json(os, {parallel, serial}, {});
  const std::string json = os.str();
  EXPECT_NE(json.find("\"threads\": 4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"scaling_efficiency\": 0.525"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"shards\": [{\"events\": 1000, \"wall_ns\": 1000000}, "
                      "{\"events\": 2000, \"wall_ns\": 3000000}]"),
            std::string::npos)
      << json;
  // Exactly one point-level "threads" (the top-level meta field is the
  // sweep pool size, always present), one efficiency field and one
  // shards array: the serial point emits none of them.
  EXPECT_EQ(json.find("\"scaling_efficiency\""),
            json.rfind("\"scaling_efficiency\""))
      << json;
  EXPECT_EQ(json.find("\"threads\": 4"), json.rfind("\"threads\": 4")) << json;
  EXPECT_EQ(json.find("\"shards\""), json.rfind("\"shards\"")) << json;
}

// ---------------------------------------------------------------------
// The fixed shared-state bugs stay fixed
// ---------------------------------------------------------------------

TEST(SweepRunner, ConcurrentClusterConstructionIsRaceFree) {
  // Construct/destroy clusters concurrently with no app run at all:
  // exercises exactly the two former process-global races (the trace
  // file index and the getenv calls in the constructor/destructor).
  // Meaningful failure mode is a TSan report, not an assertion.
  std::vector<RunPoint> points;
  for (int i = 0; i < 12; ++i) {
    points.push_back(RunPoint{"ctor", "c" + std::to_string(i), {}, [] {
                                apps::SimCluster cluster(
                                    4, apps::Interconnect::kInicIdeal);
                                RunMetrics m;
                                m.events = cluster.size();
                                return m;
                              }});
  }
  const auto results = SweepRunner(/*threads=*/4).run(points);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.metrics.events, 4u);
  }
}

TEST(TraceEnv, CapturedOncePerProcessAndSitesAgree) {
  // The snapshot is immutable and both SimCluster read sites use it;
  // repeated calls must return the same object (one capture per
  // process).
  const apps::TraceEnv& a = apps::trace_env();
  const apps::TraceEnv& b = apps::trace_env();
  EXPECT_EQ(&a, &b);
  // ctest runs this binary without ACC_TRACE set; guard the expectation
  // so a developer running it traced doesn't see a confusing failure.
  if (!a.trace_json) {
    EXPECT_TRUE(a.trace_path.empty());
  }
}

}  // namespace
}  // namespace acc
