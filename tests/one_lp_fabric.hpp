// Test substrate: a net::Fabric over the one-LP partition of its
// topology.  Every switch and host lives on `eng` (LP 0 of `pe`), so a
// test schedules on and run()s that engine exactly as it would a
// standalone one.
#pragma once

#include <cstddef>

#include "net/lp_map.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"

namespace acc::test {

struct OneLpFabric {
  explicit OneLpFabric(std::size_t hosts, const net::NetworkConfig& cfg = {})
      : plan(net::build_topology(cfg.topology, hosts)),
        part(net::one_lp_partition(plan)),
        net(pe, part, plan, cfg) {}

  sim::ParallelEngine pe{1, {}};
  sim::Engine& eng = pe.lp(0);
  net::TopologyPlan plan;
  net::LpPartition part;
  net::Fabric net;
};

}  // namespace acc::test
