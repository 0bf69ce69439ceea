// Logical-process partitioning of a fabric topology for the parallel
// event engine (sim/parallel.hpp).
//
// The conservative scheduler needs two things from the network: a
// partition of the simulated objects into LPs that only interact through
// delayed messages, and the lookahead — the minimum latency any cross-LP
// interaction carries.  Both fall straight out of the TopologyPlan:
//
//   * every switch is its own LP (a switch's forwarding decisions touch
//     only its own port state);
//   * every host joins the LP of the edge switch it attaches to (host
//     NIC and edge switch exchange frames over a zero-conflict local
//     port, so splitting them would only shrink the lookahead to the
//     host link);
//   * every interior link becomes an entry in the cross-LP link
//     registry, and the lookahead is the one interior hop latency —
//     frames need that long to travel between LPs, so events less than
//     one lookahead apart on different LPs are causally independent
//     (Chandy–Misra).
//
// A star topology has one switch, hence one LP and no cross-LP links:
// the partition degenerates to serial execution.  one_lp_partition()
// is that degenerate partition for any topology.
#pragma once

#include <cstddef>
#include <vector>

#include "common/units.hpp"
#include "net/topology.hpp"

namespace acc::net {

/// One directed interior (switch-to-switch) link crossing two LPs.
struct CrossLpLink {
  std::size_t src_lp = 0;
  std::size_t dst_lp = 0;
};

struct LpPartition {
  std::size_t lp_count = 0;
  /// LP owning each switch (switch index -> LP id).  Identity in
  /// build_lp_partition() — one LP per switch — kept explicit so a
  /// coarser grouping (e.g. one LP per pod) only touches this map.
  std::vector<std::size_t> lp_of_switch;
  /// LP owning each host (host id -> LP id of its edge switch).
  std::vector<std::size_t> lp_of_host;
  /// Every directed interior link that crosses LPs.
  std::vector<CrossLpLink> cross_links;
  /// The hop latency when cross_links is non-empty; Time::zero() when
  /// the partition has a single LP (no conservative constraint to
  /// respect).
  Time lookahead = Time::zero();
};

/// Derives the one-LP-per-switch partition from a materialized topology.
/// `hop_latency` is the one-way delay of every interior hop
/// (NetworkConfig::link_latency + switch_latency, what Fabric posts
/// cross-LP hops with).  Throws std::invalid_argument when it is not
/// positive: it is the lookahead, and a zero lookahead cannot make
/// conservative progress.
LpPartition build_lp_partition(const TopologyPlan& plan, Time hop_latency);

/// The single-LP partition of `plan`: LP 0 owns every switch and host,
/// no cross-LP links, zero lookahead.
LpPartition one_lp_partition(const TopologyPlan& plan);

}  // namespace acc::net
