// Parallel engine walkthrough and determinism probe: a neighbour ring of
// INIC transfers on a 64-host 2-level fat tree (16 switch LPs), run at
// engine_threads 1/2/4/8 through SimCluster::run().  Threads >= 2 shard
// the device models across the per-switch LPs, so every sharded run must
// reproduce one digest (docs/TRACING.md: same seed => same digest for
// ANY thread count >= 2), and every run must end at the serial end time.
//
//   $ ./parallel_engine_demo        # exits 1 on any divergence
//
// scripts/check_determinism.sh replays this binary under
// ACC_TRACE_DIGEST=1 in varied environments: the internal comparison is
// the thread-count half of the contract, the script's cross-process
// comparison the environment half.  Wall-clock throughput varies run to
// run, of course — only the digest lines are compared.
#include <chrono>
#include <cstdio>
#include <optional>

#include "apps/cluster.hpp"
#include "common/table.hpp"
#include "model/calibration.hpp"
#include "net/topology.hpp"
#include "sim/process.hpp"

using namespace acc;

namespace {

constexpr std::size_t kHosts = 64;
constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

sim::Process receive_one(apps::SimCluster& cluster, int node) {
  (void)co_await cluster.inbox(static_cast<std::size_t>(node)).recv();
}

}  // namespace

int main() {
  print_banner("SimCluster ring: 64-host fat tree, 16 switch LPs");
  Table table({"engine_threads", "LPs", "windows", "cross posts", "events",
               "events/sec", "sim (us)", "digest"});
  std::optional<Time> serial_end;
  std::optional<std::uint64_t> sharded_digest;
  int divergences = 0;
  for (std::size_t threads : kThreadCounts) {
    const auto t0 = std::chrono::steady_clock::now();
    apps::ClusterOptions copts;
    copts.topology = net::TopologyConfig::fat_tree(2);
    copts.engine_threads = threads;
    apps::SimCluster cluster(kHosts, apps::Interconnect::kInicIdeal,
                             model::default_calibration(), copts);
    cluster.enable_tracing(/*ring_capacity=*/64);
    sim::ProcessGroup group(*cluster.parallel());
    for (std::size_t i = 0; i < kHosts; ++i) {
      const auto dst = (i + 1) % kHosts;
      group.spawn_on(cluster.node_lp(i),
                     cluster.transfer(static_cast<int>(i),
                                      static_cast<int>(dst), Bytes::kib(16),
                                      i));
      group.spawn_on(cluster.node_lp(dst),
                     receive_one(cluster, static_cast<int>(dst)));
    }
    const Time end = cluster.run();
    group.join();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    const std::uint64_t digest = cluster.digest();
    if (!serial_end) serial_end = end;
    if (end != *serial_end) ++divergences;
    if (threads >= 2) {
      // An unsharded run here would make the digest comparison vacuous.
      if (!cluster.sharded()) ++divergences;
      if (!sharded_digest) sharded_digest = digest;
      if (digest != *sharded_digest) ++divergences;
    }
    const sim::ParallelEngine* pe = cluster.parallel();
    const std::uint64_t events = cluster.events_executed();
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(digest));
    table.row()
        .add(static_cast<std::int64_t>(threads))
        .add(static_cast<std::int64_t>(pe->lp_count()))
        .add(static_cast<std::int64_t>(pe->windows()))
        .add(static_cast<std::int64_t>(pe->cross_posts()))
        .add(static_cast<std::int64_t>(events))
        .add(secs > 0 ? static_cast<double>(events) / secs : 0.0, 0)
        .add(end.as_micros(), 1)
        .add(hex);
  }
  table.print();
  if (divergences) {
    std::fprintf(stderr,
                 "FAIL: %d check(s) failed (unsharded run, sharded digest "
                 "or end time)\n",
                 divergences);
    return 1;
  }
  std::puts("every sharded thread count reproduces one digest and the "
            "serial end time");
  return 0;
}
