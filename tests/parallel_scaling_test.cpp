// Thread-count independence of sharded SimCluster runs
// (ClusterOptions::engine_threads >= 2, docs/TRACING.md): the full device
// models on per-switch LPs, digest bit-identical across every sharded
// thread count, and serial-vs-sharded equivalence on end time + merged
// counter totals (the sharded digest is a different constant by design:
// per-lane frame ids).
//
// CI additionally runs this binary under ThreadSanitizer, so the
// 1024-host fat-tree stress point doubles as the data-race probe for
// the worker pool, mailbox machinery, and migrated device models.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/cluster.hpp"
#include "apps/kv_app.hpp"
#include "common/units.hpp"
#include "fault/fault.hpp"
#include "model/calibration.hpp"
#include "net/topology.hpp"
#include "sim/process.hpp"
#include "trace/counters.hpp"

namespace acc {
namespace {

struct TopoCase {
  const char* label;
  net::TopologyConfig config;
  std::size_t hosts;
};

// ---------------------------------------------------------------------
// SimCluster device models on LPs: digest/counter contract
// ---------------------------------------------------------------------
//
// Digest semantics (docs/TRACING.md): engine_threads <= 1 is the one-LP
// partition — its digest is the golden-pinned serial value.
// engine_threads >= 2 shards the device models across per-switch LPs
// with per-lane frame ids, so the combined digest is a DIFFERENT
// constant — but the same one for every thread count >= 2, and the
// merged counter totals and end time must equal the serial run exactly.
// A single-switch star never shards, so there the digest matches
// serial for every thread count.

std::vector<TopoCase> cluster_topologies() {
  return {
      {"star", net::TopologyConfig::star(), 8},
      {"fattree2", net::TopologyConfig::fat_tree(2), 8},
      {"fattree3", net::TopologyConfig::fat_tree(3), 16},
      {"torus2", net::TopologyConfig::torus(2), 8},
      {"torus3", net::TopologyConfig::torus(3, 2, 2, 2), 8},
  };
}

struct ClusterRun {
  std::uint64_t digest = 0;
  std::uint64_t records = 0;
  std::uint64_t events = 0;
  Time end = Time::zero();
  std::vector<trace::CounterSample> counters;
  bool sharded = false;
  std::size_t lp_count = 1;
  std::uint64_t cross_posts = 0;
  std::uint64_t fallback_transfers = 0;
};

/// A neighbour-ring transfer workload with every rank coroutine spawned
/// on its node's LP; SimCluster::run() drives the engine_threads
/// dispatch path under test.  A non-empty `faults` plan is armed through
/// fault::FaultInjector before the ranks are spawned.
ClusterRun ring_run(std::size_t hosts, const apps::ClusterOptions& copts,
                    const fault::FaultPlan& faults = {}) {
  apps::SimCluster cluster(hosts, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), copts);
  cluster.enable_tracing(/*ring_capacity=*/64);
  std::optional<fault::FaultInjector> injector;
  if (!faults.empty()) injector.emplace(cluster, faults);
  sim::ProcessGroup group(*cluster.parallel());
  for (std::size_t i = 0; i < hosts; ++i) {
    const int src = static_cast<int>(i);
    const int dst = static_cast<int>((i + 1) % hosts);
    group.spawn_on(cluster.node_lp(i),
                   cluster.transfer(src, dst, Bytes::kib(4), i));
    group.spawn_on(cluster.node_lp(static_cast<std::size_t>(dst)),
                   [](apps::SimCluster& c, int node) -> sim::Process {
                     (void)co_await c.inbox(static_cast<std::size_t>(node))
                         .recv();
                   }(cluster, dst));
  }
  ClusterRun out;
  out.end = cluster.run();
  group.join();  // queue already drained; verifies nothing is stuck
  out.digest = cluster.digest();
  out.records = cluster.trace_records();
  out.events = cluster.events_executed();
  out.counters = cluster.counters_snapshot();
  out.sharded = cluster.sharded();
  out.lp_count = cluster.parallel()->lp_count();
  out.cross_posts = cluster.parallel()->cross_posts();
  out.fallback_transfers = cluster.fallback_transfers();
  return out;
}

ClusterRun cluster_run(const TopoCase& tc, std::size_t threads) {
  apps::ClusterOptions copts;
  copts.topology = tc.config;
  copts.engine_threads = threads;
  return ring_run(tc.hosts, copts);
}

/// Open-loop KV serving on the same cluster shape; returns the merged
/// run telemetry plus the KV result's own verification flag.
ClusterRun cluster_kv_run(const TopoCase& tc, std::size_t threads,
                          bool* verified) {
  apps::ClusterOptions copts;
  copts.topology = tc.config;
  copts.engine_threads = threads;
  apps::SimCluster cluster(tc.hosts, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), copts);
  cluster.enable_tracing(/*ring_capacity=*/64);
  apps::KvRunOptions kv;
  kv.clients = tc.hosts / 2;
  kv.servers = tc.hosts / 2;
  kv.requests_per_client = 12;
  kv.rate_hz = 50000.0;
  const apps::KvRunResult r = apps::run_kv_serving(cluster, kv);
  if (verified != nullptr) *verified = r.verified;
  ClusterRun out;
  out.end = r.total;
  out.digest = cluster.digest();
  out.records = cluster.trace_records();
  out.events = cluster.events_executed();
  out.counters = cluster.counters_snapshot();
  out.sharded = cluster.sharded();
  return out;
}

void expect_same_run(const ClusterRun& run, const ClusterRun& ref,
                     const char* label, std::size_t threads) {
  EXPECT_EQ(run.digest, ref.digest)
      << label << " digest diverged at engine_threads=" << threads;
  EXPECT_EQ(run.records, ref.records) << label << " t=" << threads;
  EXPECT_EQ(run.events, ref.events) << label << " t=" << threads;
  EXPECT_EQ(run.end, ref.end) << label << " t=" << threads;
}

/// Serial-vs-sharded equivalence: the merged per-LP counter totals must
/// equal the serial registry exactly, key by key.
void expect_same_counters(const std::vector<trace::CounterSample>& run,
                          const std::vector<trace::CounterSample>& ref,
                          const char* label, std::size_t threads) {
  ASSERT_EQ(run.size(), ref.size()) << label << " t=" << threads;
  for (std::size_t i = 0; i < run.size(); ++i) {
    EXPECT_EQ(run[i].category, ref[i].category) << label << " t=" << threads;
    EXPECT_EQ(run[i].node, ref[i].node) << label << " t=" << threads;
    EXPECT_EQ(run[i].name, ref[i].name) << label << " t=" << threads;
    EXPECT_EQ(run[i].value, ref[i].value)
        << label << " t=" << threads << " counter " << run[i].name << "/"
        << run[i].node;
  }
}

TEST(ParallelScaling, ClusterDigestIndependentOfShardedThreadCount) {
  for (const TopoCase& tc : cluster_topologies()) {
    const ClusterRun serial = cluster_run(tc, /*threads=*/1);
    EXPECT_GT(serial.events, 0u) << tc.label;
    EXPECT_FALSE(serial.sharded) << tc.label;
#ifndef ACC_TRACE_DISABLED
    EXPECT_GT(serial.records, 0u) << tc.label;
#endif
    const ClusterRun sharded = cluster_run(tc, /*threads=*/2);
    // End time and merged counters match serial on every family; the
    // digest additionally matches when the plan stays single-LP (star).
    EXPECT_EQ(sharded.end, serial.end) << tc.label;
    expect_same_counters(sharded.counters, serial.counters, tc.label, 2);
    if (!sharded.sharded) {
      expect_same_run(sharded, serial, tc.label, 2);
    }
    for (std::size_t threads : {std::size_t{4}, std::size_t{8}}) {
      const ClusterRun run = cluster_run(tc, threads);
      expect_same_run(run, sharded, tc.label, threads);
      expect_same_counters(run.counters, serial.counters, tc.label, threads);
    }
  }
}

TEST(ParallelScaling, ClusterKvServingMatchesSerialOnEveryFamily) {
  for (const TopoCase& tc : cluster_topologies()) {
    bool ref_verified = false;
    const ClusterRun serial = cluster_kv_run(tc, /*threads=*/1,
                                             &ref_verified);
    EXPECT_TRUE(ref_verified) << tc.label;
    const ClusterRun sharded = cluster_kv_run(tc, /*threads=*/2, nullptr);
    EXPECT_EQ(sharded.end, serial.end) << tc.label;
    expect_same_counters(sharded.counters, serial.counters, tc.label, 2);
    for (std::size_t threads : {std::size_t{4}, std::size_t{8}}) {
      bool run_verified = false;
      const ClusterRun run = cluster_kv_run(tc, threads, &run_verified);
      EXPECT_TRUE(run_verified) << tc.label << " t=" << threads;
      expect_same_run(run, sharded, tc.label, threads);
      expect_same_counters(run.counters, serial.counters, tc.label, threads);
    }
  }
}

TEST(ParallelScaling, FatTree1024StressPoint) {
  // The floor shape's fabric (fat_tree(3) at 1024 hosts = 320 switch
  // LPs), one 4 KiB ring transfer per host so the TSan job can afford
  // it.  Checks the full contract at the scale where every worker is
  // saturated and the mailbox matrix is large.
  const TopoCase tc{"fattree3/P=1024", net::TopologyConfig::fat_tree(3),
                    1024};
  const ClusterRun serial = cluster_run(tc, /*threads=*/1);
  const ClusterRun two = cluster_run(tc, /*threads=*/2);
  const ClusterRun four = cluster_run(tc, /*threads=*/4);
  ASSERT_TRUE(two.sharded);
  expect_same_run(four, two, tc.label, 4);
  EXPECT_EQ(two.end, serial.end);
  expect_same_counters(two.counters, serial.counters, tc.label, 2);
  expect_same_counters(four.counters, serial.counters, tc.label, 4);
  EXPECT_GT(two.lp_count, 100u);
  EXPECT_GT(two.cross_posts, 0u);
}

// ---------------------------------------------------------------------
// Features the per-switch partition cannot honour: one-LP runs
// ---------------------------------------------------------------------
//
// A star, adaptive routing and the degraded-INIC fallback run on the
// one-LP partition whatever engine_threads asks for: LP 0 owns every
// switch and host, so the fault hooks (which touch state across
// switches) stay legal and the run is identical at any thread count.

std::uint64_t counter_total(const std::vector<trace::CounterSample>& counters,
                            const char* name) {
  std::uint64_t total = 0;
  for (const auto& c : counters) {
    if (c.name == name) total += c.value;
  }
  return total;
}

TEST(ParallelScaling, UnshardableClustersRunAsOneLpAtAnyThreadCount) {
  constexpr std::size_t kHosts = 8;
  const net::TopologyConfig fat = net::TopologyConfig::fat_tree(2);
  // The cut: host 0's first uplink, so its off-switch traffic must be
  // rerouted around it.
  const net::TopologyPlan plan = net::build_topology(fat, kHosts);
  const int edge = plan.hosts.front().sw;
  int spine = -1;
  for (const auto& port : plan.switches[static_cast<std::size_t>(edge)].ports) {
    if (port.peer_switch >= 0) {
      spine = port.peer_switch;
      break;
    }
  }
  ASSERT_GE(spine, 0);

  struct Case {
    const char* label;
    apps::ClusterOptions opts;
    fault::FaultPlan faults;
  };
  std::vector<Case> cases(3);
  cases[0].label = "star";
  cases[1].label = "fattree2+adaptive_routing+link_cut";
  cases[1].opts.topology = fat;
  cases[1].opts.adaptive_routing = true;
  cases[1].opts.inic_hw_retransmit = true;
  cases[1].opts.inic_max_retries = 8;
  cases[1].faults.with_interior_link_failed(edge, spine, Time::micros(10));
  cases[2].label = "fattree2+degraded_fallback+card_reset";
  cases[2].opts.topology = fat;
  cases[2].opts.degraded_fallback = true;
  cases[2].opts.inic_hw_retransmit = true;
  cases[2].opts.inic_max_retries = 16;
  cases[2].faults.with_card_reset(2, Time::zero(), Time::micros(50));

  for (Case& c : cases) {
    ClusterRun ref;
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      c.opts.engine_threads = threads;
      ClusterRun run;
      EXPECT_NO_THROW(run = ring_run(kHosts, c.opts, c.faults))
          << c.label << " t=" << threads;
      EXPECT_FALSE(run.sharded) << c.label << " t=" << threads;
      EXPECT_EQ(run.lp_count, 1u) << c.label << " t=" << threads;
      if (threads == 1) {
        ref = run;
        continue;
      }
      expect_same_run(run, ref, c.label, threads);
      expect_same_counters(run.counters, ref.counters, c.label, threads);
    }
    if (&c == &cases[1]) {
      // The cut was declared and routed around.
      EXPECT_GT(counter_total(ref.counters, "net/route_epoch"), 0u);
    }
    if (&c == &cases[2]) {
      EXPECT_GT(ref.fallback_transfers, 0u);  // the reset forced TCP
    }
  }
}

TEST(ParallelScaling, FaultPlansAreRejectedOnShardedClusters) {
  // Fault windows fire on LP 0 but mutate ports and cards owned by other
  // LPs, so a sharded cluster refuses them up front instead of throwing
  // mid-window (link_down) or writing across LPs (card_reset).
  constexpr std::size_t kHosts = 8;
  fault::FaultPlan link_down;
  link_down.with_link_down(7, Time::micros(5), Time::micros(20));
  fault::FaultPlan card_reset;
  card_reset.with_card_reset(7, Time::micros(5), Time::micros(20));
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    apps::ClusterOptions copts;
    copts.topology = net::TopologyConfig::fat_tree(2);
    copts.engine_threads = threads;
    copts.inic_hw_retransmit = true;
    apps::SimCluster cluster(kHosts, apps::Interconnect::kInicIdeal,
                             model::default_calibration(), copts);
    ASSERT_TRUE(cluster.sharded()) << "t=" << threads;
    ASSERT_NE(cluster.node_lp(7), 0u) << "t=" << threads;
    for (const fault::FaultPlan* plan : {&link_down, &card_reset}) {
      try {
        fault::FaultInjector injector(cluster, *plan);
        ADD_FAILURE() << "sharded cluster accepted a fault plan, t="
                      << threads;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("engine_threads"),
                  std::string::npos)
            << e.what();
      }
    }
    // An empty plan arms nothing and stays legal.
    EXPECT_NO_THROW(fault::FaultInjector(cluster, fault::FaultPlan{}));
  }
}

}  // namespace
}  // namespace acc
