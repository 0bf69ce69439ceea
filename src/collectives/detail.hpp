// Private to src/collectives: the two backends behind the public entry
// points of collectives.hpp, and the payload helpers both share.  The
// entry points pick one from apps::ClusterOptions::collective_backend;
// application code never names one directly.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "collectives/collectives.hpp"
#include "common/rng.hpp"

namespace acc::coll::detail {

using DoubleVec = std::vector<double>;

inline Bytes vec_bytes(std::size_t elements) {
  return Bytes(elements * sizeof(double));
}

inline DoubleVec make_vector(std::size_t elements, std::uint64_t seed) {
  Rng rng(seed);
  DoubleVec v(elements);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// True when `v` is `expected` elementwise to within 1e-9 (reduction
/// results: summation order differs between trees).
inline bool sums_to(const DoubleVec& v, const DoubleVec& expected) {
  if (v.size() != expected.size()) return false;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (std::abs(v[i] - expected[i]) > 1e-9) return false;
  }
  return true;
}

// Host backend (host_backend.cpp): every rank runs a send/recv loop on its
// host over SimCluster::transfer() and SimCluster::inbox().
CollectiveResult host_barrier(apps::SimCluster& cluster);
CollectiveResult host_broadcast(apps::SimCluster& cluster,
                                std::size_t elements, std::uint64_t seed);
CollectiveResult host_reduce(apps::SimCluster& cluster, std::size_t elements,
                             std::uint64_t seed);
CollectiveResult host_allreduce(apps::SimCluster& cluster,
                                std::size_t elements, std::uint64_t seed);
CollectiveResult host_alltoall(apps::SimCluster& cluster,
                               std::size_t elements, std::uint64_t seed);

// NIC backend (nic_backend.cpp): card-resident state machines; requires an
// INIC interconnect.
CollectiveResult nic_barrier(apps::SimCluster& cluster);
CollectiveResult nic_broadcast(apps::SimCluster& cluster,
                               std::size_t elements, std::uint64_t seed);
CollectiveResult nic_reduce(apps::SimCluster& cluster, std::size_t elements,
                            std::uint64_t seed);
CollectiveResult nic_allreduce(apps::SimCluster& cluster,
                               std::size_t elements, std::uint64_t seed);

}  // namespace acc::coll::detail
