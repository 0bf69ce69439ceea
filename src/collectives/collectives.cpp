// Public collective entry points: each picks the host or NIC backend
// (collectives/detail.hpp) from cluster.options().collective_backend,
// plus the backend-independent helpers (hop ordering, host combine cost).
#include "collectives/collectives.hpp"

#include <algorithm>
#include <numeric>

#include "collectives/detail.hpp"

namespace acc::coll {

namespace {

bool on_nic(const apps::SimCluster& cluster) {
  return cluster.options().collective_backend ==
         apps::CollectiveBackend::kNic;
}

}  // namespace

CollectiveResult barrier(apps::SimCluster& cluster) {
  return on_nic(cluster) ? detail::nic_barrier(cluster)
                         : detail::host_barrier(cluster);
}

CollectiveResult alltoall(apps::SimCluster& cluster, std::size_t elements,
                          std::uint64_t seed) {
  // No spanning tree to offload on either backend: the host backend
  // already runs all P*(P-1) streams concurrently through the cards.
  return detail::host_alltoall(cluster, elements, seed);
}

CollectiveResult topology_broadcast(apps::SimCluster& cluster,
                                    std::size_t elements, std::uint64_t seed) {
  return on_nic(cluster) ? detail::nic_broadcast(cluster, elements, seed)
                         : detail::host_broadcast(cluster, elements, seed);
}

CollectiveResult topology_reduce(apps::SimCluster& cluster,
                                 std::size_t elements, std::uint64_t seed) {
  return on_nic(cluster) ? detail::nic_reduce(cluster, elements, seed)
                         : detail::host_reduce(cluster, elements, seed);
}

CollectiveResult topology_allreduce(apps::SimCluster& cluster,
                                    std::size_t elements, std::uint64_t seed) {
  return on_nic(cluster) ? detail::nic_allreduce(cluster, elements, seed)
                         : detail::host_allreduce(cluster, elements, seed);
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
