// Public collective entry points: thin dispatchers to the backend the
// cluster was configured with (collectives/backend.hpp), plus the
// backend-independent helpers (hop ordering, host combine cost).
#include "collectives/collectives.hpp"

#include <algorithm>
#include <numeric>

#include "collectives/backend.hpp"

namespace acc::coll {

const ICollectiveRoutines& routines_for(apps::SimCluster& cluster) {
  return cluster.options().collective_backend ==
                 apps::CollectiveBackend::kNic
             ? nic_routines()
             : host_routines();
}

CollectiveResult barrier(apps::SimCluster& cluster) {
  return routines_for(cluster).barrier(cluster);
}

CollectiveResult broadcast(apps::SimCluster& cluster, std::size_t elements,
                           std::uint64_t seed) {
  return routines_for(cluster).broadcast(cluster, elements, seed);
}

CollectiveResult reduce(apps::SimCluster& cluster, std::size_t elements,
                        std::uint64_t seed) {
  return routines_for(cluster).reduce(cluster, elements, seed);
}

CollectiveResult allreduce(apps::SimCluster& cluster, std::size_t elements,
                           std::uint64_t seed) {
  return routines_for(cluster).allreduce(cluster, elements, seed);
}

CollectiveResult alltoall(apps::SimCluster& cluster, std::size_t elements,
                          std::uint64_t seed) {
  return routines_for(cluster).alltoall(cluster, elements, seed);
}

CollectiveResult topology_broadcast(apps::SimCluster& cluster,
                                    std::size_t elements, std::uint64_t seed) {
  return routines_for(cluster).topology_broadcast(cluster, elements, seed);
}

CollectiveResult topology_reduce(apps::SimCluster& cluster,
                                 std::size_t elements, std::uint64_t seed) {
  return routines_for(cluster).topology_reduce(cluster, elements, seed);
}

CollectiveResult topology_allreduce(apps::SimCluster& cluster,
                                    std::size_t elements, std::uint64_t seed) {
  return routines_for(cluster).topology_allreduce(cluster, elements, seed);
}

std::vector<std::size_t> hop_ordered_ranks(apps::SimCluster& cluster,
                                           std::size_t root) {
  net::Fabric& net = cluster.network();
  std::vector<std::size_t> order(cluster.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::swap(order[0], order[root]);
  // Stable sort of the non-root tail keeps node-id order within equal
  // hop counts — the permutation is a pure function of the topology.
  std::stable_sort(order.begin() + 1, order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return net.hop_count(static_cast<int>(root),
                                          static_cast<int>(a)) <
                            net.hop_count(static_cast<int>(root),
                                          static_cast<int>(b));
                   });
  return order;
}

Time host_combine_time(apps::SimCluster& cluster, std::size_t node,
                       std::size_t elements) {
  hw::Cpu& cpu = cluster.node(node).cpu();
  // One add per element plus streaming both operands through the
  // hierarchy (16 bytes per element, working set of the two vectors).
  return cpu.flops_time(static_cast<double>(elements)) +
         cpu.memory().pass_time(Bytes(16 * elements), Bytes(16 * elements));
}

}  // namespace acc::coll
