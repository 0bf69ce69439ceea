// Multi-hop fabric walkthrough: the same cluster wired three ways.
//
//   1. A 16-node 2-level fat tree running topology-aware collectives,
//      with the deterministic up/down routes and per-link congestion
//      counters printed afterwards.
//   2. A 16-node 2-D torus (4x4) running an allreduce while a scripted
//      interior-link outage (fault::InteriorLinkDownWindow) takes the
//      backbone link between switches 0 and 1 dark mid-run — hardware
//      go-back-N retransmission carries the collective to a verified
//      result anyway.
//
//   $ ./topology_demo
//
// Both runs are deterministic; scripts/check_determinism.sh replays this
// binary under ACC_TRACE_DIGEST=1 in varied environments and requires
// bit-identical digests (the multi-hop half of the contract).  Set
// ACC_TRACE=/tmp/topo.json for the full timeline: per-hop egress spans
// appear under "net", fault edges under "fault".
#include <cstdio>
#include <string>

#include "collectives/collectives.hpp"
#include "core/acc.hpp"

using namespace acc;

namespace {

constexpr std::size_t kNodes = 16;
constexpr std::size_t kElements = 4096;  // 32 KiB of doubles

std::string route_string(net::Fabric& net, int src, int dst) {
  std::string s = "host" + std::to_string(src);
  for (int sw : net.route(src, dst)) {
    s += " -> sw" + std::to_string(sw);
  }
  return s + " -> host" + std::to_string(dst);
}

}  // namespace

int main() {
  bool all_verified = true;

  // --- Part 1: fat tree -------------------------------------------------
  {
    apps::ClusterOptions copts;
    copts.topology = net::TopologyConfig::fat_tree(/*levels=*/2);
    apps::SimCluster cluster(kNodes, apps::Interconnect::kInicIdeal,
                             model::default_calibration(), copts);
    net::Fabric& net = cluster.network();
    std::printf("fat tree:  %s, %zu switches\n",
                net::describe_topology(copts.topology, kNodes).c_str(),
                net.switch_count());
    std::printf("  same-edge route:  %s\n", route_string(net, 0, 1).c_str());
    std::printf("  cross-edge route: %s\n",
                route_string(net, 0, (int)kNodes - 1).c_str());

    const auto bcast = coll::topology_broadcast(cluster, kElements, 21);
    const auto red = coll::topology_reduce(cluster, kElements, 22);
    all_verified = all_verified && bcast.verified && red.verified;
    std::printf("  broadcast %7.3f ms %s, reduce %7.3f ms %s\n",
                bcast.total.as_millis(), bcast.verified ? "ok" : "WRONG",
                red.total.as_millis(), red.verified ? "ok" : "WRONG");

    Table links({"interior link", "frames", "bytes", "peak queue (B)"});
    for (const auto& l : net.interior_link_stats()) {
      if (l.frames == 0) continue;
      links.row()
          .add("sw" + std::to_string(l.from_switch) + " -> sw" +
               std::to_string(l.to_switch))
          .add(static_cast<std::int64_t>(l.frames))
          .add(static_cast<std::int64_t>(l.bytes.count()))
          .add(static_cast<std::int64_t>(l.peak_queue.count()));
    }
    links.print();
  }

  // --- Part 2: torus under an interior-link outage ----------------------
  {
    apps::ClusterOptions copts;
    copts.topology = net::TopologyConfig::torus(/*dims=*/2);
    copts.inic_hw_retransmit = true;
    copts.inic_max_retries = 64;

    // Clean reference run to size the outage window.
    Time clean_total;
    {
      apps::SimCluster cluster(kNodes, apps::Interconnect::kInicIdeal,
                               model::default_calibration(), copts);
      const auto r = coll::topology_allreduce(cluster, kElements, 23);
      all_verified = all_verified && r.verified;
      clean_total = r.total;
      std::printf("\ntorus:     %s, clean allreduce %7.3f ms %s\n",
                  net::describe_topology(copts.topology, kNodes).c_str(),
                  r.total.as_millis(), r.verified ? "ok" : "WRONG");
    }

    // Same run with the sw0-sw1 backbone link dark for the middle of the
    // run.  Frames routed across the link die at the hop; go-back-N
    // retries carry them once the window closes.
    fault::FaultPlan plan;
    plan.with_seed(7).with_interior_link_down(/*switch_a=*/0, /*switch_b=*/1,
                                              clean_total * 0.2,
                                              clean_total * 0.4);
    apps::SimCluster cluster(kNodes, apps::Interconnect::kInicIdeal,
                             model::default_calibration(), copts);
    cluster.engine().set_time_budget(Time::seconds(5));  // watchdog backstop
    fault::FaultInjector injector(cluster, plan);
    const auto r = coll::topology_allreduce(cluster, kElements, 23);
    all_verified = all_verified && r.verified;

    std::uint64_t retransmits = 0;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      retransmits += cluster.card(i).retransmits();
    }
    std::printf("faulted allreduce %7.3f ms %s\n", r.total.as_millis(),
                r.verified ? "ok" : "WRONG");
    std::printf("  link-down drops %llu, go-back-N retransmissions %llu\n",
                static_cast<unsigned long long>(
                    cluster.network().frames_dropped_link_down()),
                static_cast<unsigned long long>(retransmits));
  }

  return all_verified ? 0 : 1;
}
