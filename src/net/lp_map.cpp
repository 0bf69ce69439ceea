#include "net/lp_map.hpp"

#include <stdexcept>

namespace acc::net {

LpPartition build_lp_partition(const TopologyPlan& plan, Time hop_latency) {
  if (plan.switches.empty()) {
    throw std::invalid_argument("build_lp_partition: empty topology plan");
  }
  if (hop_latency <= Time::zero()) {
    throw std::invalid_argument(
        "build_lp_partition: interior hop latency must be positive (it is "
        "the conservative lookahead)");
  }
  LpPartition part;
  part.lp_count = plan.switches.size();
  part.lp_of_switch.resize(plan.switches.size());
  for (std::size_t s = 0; s < plan.switches.size(); ++s) {
    part.lp_of_switch[s] = s;
  }
  part.lp_of_host.resize(plan.hosts.size());
  for (std::size_t h = 0; h < plan.hosts.size(); ++h) {
    part.lp_of_host[h] =
        part.lp_of_switch[static_cast<std::size_t>(plan.hosts[h].sw)];
  }
  // Register every directed interior link whose endpoints live in
  // different LPs.  With the identity switch->LP map that is every
  // interior link; a coarser grouping would drop the intra-group ones.
  for (std::size_t s = 0; s < plan.switches.size(); ++s) {
    for (const TopologyPlan::Port& p : plan.switches[s].ports) {
      if (p.peer_switch < 0) continue;
      const std::size_t src_lp = part.lp_of_switch[s];
      const std::size_t dst_lp =
          part.lp_of_switch[static_cast<std::size_t>(p.peer_switch)];
      if (src_lp == dst_lp) continue;
      part.cross_links.push_back(CrossLpLink{src_lp, dst_lp});
    }
  }
  if (!part.cross_links.empty()) part.lookahead = hop_latency;
  return part;
}

LpPartition one_lp_partition(const TopologyPlan& plan) {
  LpPartition part;
  part.lp_count = 1;
  part.lp_of_switch.assign(plan.switches.size(), 0);
  part.lp_of_host.assign(plan.hosts.size(), 0);
  return part;
}

}  // namespace acc::net
