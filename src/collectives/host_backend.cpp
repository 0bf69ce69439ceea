// Host backend: every rank runs a send/recv loop on its host; combines
// charge host CPU time on the TCP interconnects and ride the INIC stream
// for free on the INIC ones.  Messages go through SimCluster::transfer()
// and SimCluster::inbox(), the same seam the NIC backend's on-card
// forwards use, so the degraded TCP fallback carries host collectives
// through a card reset too.  The golden trace digests pin this file
// event for event.
#include <algorithm>
#include <memory>
#include <utility>

#include "collectives/detail.hpp"
#include "proto/tagged_inbox.hpp"
#include "sim/process.hpp"

namespace acc::coll::detail {

namespace {

constexpr std::uint64_t kBarrierTagBase = 0x0100'0000;
constexpr std::uint64_t kBcastTag = 0x0200'0000;
constexpr std::uint64_t kReduceTag = 0x0300'0000;
constexpr std::uint64_t kAllreduceBcastTag = 0x0400'0000;
constexpr std::uint64_t kAlltoallTagBase = 0x0500'0000;

/// One rank's endpoint: sends through SimCluster::transfer(), tag-matched
/// receives over SimCluster::inbox().  The interconnect decides whether
/// messages cross host TCP stacks or card-to-card INIC streams.
class Transport {
 public:
  Transport(apps::SimCluster& cluster, std::size_t me)
      : cluster_(cluster),
        me_(me),
        eng_(cluster.node_engine(me)),
        inic_(apps::is_inic(cluster.interconnect())),
        inbox_(cluster.inbox(me)) {}

  sim::Process send(std::size_t dst, Bytes size, std::uint64_t tag,
                    std::any payload) {
    return cluster_.transfer(static_cast<int>(me_), static_cast<int>(dst),
                             size, tag, std::move(payload));
  }

  sim::Process recv(std::uint64_t tag, proto::Message& out) {
    return inbox_.recv(tag, out);
  }

  bool inic() const { return inic_; }
  std::size_t me() const { return me_; }
  apps::SimCluster& cluster() { return cluster_; }

  /// The engine of this rank's node — its LP's engine when the cluster
  /// is sharded, the cluster engine otherwise.  Rank coroutines must
  /// schedule exclusively here so every event stays on the owning LP.
  sim::Engine& engine() { return eng_; }

 private:
  apps::SimCluster& cluster_;
  std::size_t me_;
  sim::Engine& eng_;
  bool inic_;
  proto::TaggedInbox inbox_;
};

/// Combine partial results; on the host path this costs CPU time, on the
/// INIC it rides the stream (charged nowhere).
sim::Process combine(Transport& t, DoubleVec& into, const DoubleVec& from) {
  if (!t.inic()) {
    co_await t.cluster()
        .node(t.me())
        .cpu()
        .compute(host_combine_time(t.cluster(), t.me(), into.size()));
  }
  for (std::size_t i = 0; i < into.size(); ++i) into[i] += from[i];
}

// ---------------------------------------------------------------------
// Barrier: dissemination, ceil(log2 P) rounds.
// ---------------------------------------------------------------------

sim::Process barrier_rank(Transport t, std::size_t p_count, Time enter_delay,
                          Time& entered, Time& left) {
  sim::Engine& eng = t.engine();
  co_await sim::Delay{eng, enter_delay};
  entered = eng.now();

  const std::size_t me = t.me();
  for (std::size_t k = 0, step = 1; step < p_count; ++k, step <<= 1) {
    const std::size_t dst = (me + step) % p_count;
    sim::Process send =
        t.send(dst, Bytes(8), kBarrierTagBase + k, std::any{});
    send.start(eng);
    proto::Message msg;
    co_await t.recv(kBarrierTagBase + k, msg);
    co_await send;
  }
  left = eng.now();
}

// ---------------------------------------------------------------------
// Trees: binomial over logical ranks; order[l] is the physical node
// acting as logical rank l (hop_ordered_ranks()).
// ---------------------------------------------------------------------

/// Broadcast from logical rank 0: wait for the parent's copy, then
/// forward it to every child concurrently.
sim::Process bcast_steps(Transport& t, std::size_t p_count,
                         std::size_t elements, DoubleVec& data,
                         const std::vector<std::size_t>& order,
                         std::size_t me, std::uint64_t tag) {
  sim::Engine& eng = t.engine();
  std::size_t mask = 1;
  while (mask < p_count) {
    if (me & mask) {
      proto::Message msg;
      co_await t.recv(tag, msg);
      data = std::any_cast<DoubleVec>(std::move(msg.payload));
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  std::vector<std::unique_ptr<sim::Process>> sends;
  while (mask > 0) {
    const std::size_t dst = me + mask;
    if ((me & (mask - 1)) == 0 && dst < p_count && !(me & mask)) {
      sends.push_back(std::make_unique<sim::Process>(
          t.send(order[dst], vec_bytes(elements), tag, data)));
      sends.back()->start(eng);
    }
    mask >>= 1;
  }
  for (auto& s : sends) co_await *s;
}

/// Reduce toward logical rank 0, elementwise sum.
sim::Process reduce_steps(Transport& t, std::size_t p_count,
                          std::size_t elements, DoubleVec& data,
                          const std::vector<std::size_t>& order,
                          std::size_t me) {
  for (std::size_t mask = 1; mask < p_count; mask <<= 1) {
    if (me & mask) {
      co_await t.send(order[me - mask], vec_bytes(elements), kReduceTag,
                      std::move(data));
      data.clear();
      break;
    }
    const std::size_t src = me + mask;
    if (src < p_count) {
      proto::Message msg;
      co_await t.recv(kReduceTag, msg);
      const auto partial = std::any_cast<DoubleVec>(std::move(msg.payload));
      co_await combine(t, data, partial);
    }
  }
}

sim::Process bcast_rank(Transport t, std::size_t p_count,
                        std::size_t elements, DoubleVec& data,
                        const std::vector<std::size_t>& order,
                        std::size_t logical) {
  co_await bcast_steps(t, p_count, elements, data, order, logical, kBcastTag);
}

sim::Process reduce_rank(Transport t, std::size_t p_count,
                         std::size_t elements, DoubleVec& data,
                         const std::vector<std::size_t>& order,
                         std::size_t logical) {
  co_await reduce_steps(t, p_count, elements, data, order, logical);
}

/// Reduce to logical rank 0, then broadcast the sum back down the same
/// tree under its own tag.
sim::Process allreduce_rank(Transport t, std::size_t p_count,
                            std::size_t elements, DoubleVec& data,
                            const std::vector<std::size_t>& order,
                            std::size_t logical) {
  co_await reduce_steps(t, p_count, elements, data, order, logical);
  co_await bcast_steps(t, p_count, elements, data, order, logical,
                       kAllreduceBcastTag);
}

}  // namespace

CollectiveResult host_barrier(apps::SimCluster& cluster) {
  const std::size_t p_count = cluster.size();
  std::vector<Time> entered(p_count), left(p_count);

  sim::ProcessGroup group(*cluster.parallel());
  for (std::size_t p = 0; p < p_count; ++p) {
    // Staggered entry makes the barrier property non-trivial: the last
    // entrant arrives (P-1) * 50 us after the first.
    group.spawn_on(cluster.node_lp(p),
                   barrier_rank(Transport(cluster, p), p_count,
                                Time::micros(50.0 * static_cast<double>(p)),
                                entered[p], left[p]));
  }
  const Time total = group.join();

  CollectiveResult result;
  result.processors = p_count;
  result.interconnect = cluster.interconnect();
  result.total = total;
  // Barrier property: nobody leaves before everybody has entered.
  const Time last_entry = *std::max_element(entered.begin(), entered.end());
  const Time first_exit = *std::min_element(left.begin(), left.end());
  result.verified = p_count == 1 || first_exit >= last_entry;
  return result;
}

CollectiveResult host_broadcast(apps::SimCluster& cluster,
                                std::size_t elements, std::uint64_t seed) {
  const std::size_t p_count = cluster.size();
  const std::vector<std::size_t> order = hop_ordered_ranks(cluster);
  const DoubleVec root_data = make_vector(elements, seed);
  std::vector<DoubleVec> data(p_count);  // indexed by physical node
  data[order[0]] = root_data;

  sim::ProcessGroup group(*cluster.parallel());
  for (std::size_t l = 0; l < p_count; ++l) {
    const std::size_t phys = order[l];
    group.spawn_on(cluster.node_lp(phys),
                   bcast_rank(Transport(cluster, phys), p_count, elements,
                              data[phys], order, l));
  }
  const Time total = group.join();

  CollectiveResult result;
  result.processors = p_count;
  result.interconnect = cluster.interconnect();
  result.payload = vec_bytes(elements);
  result.total = total;
  result.verified = true;
  for (std::size_t p = 0; p < p_count; ++p) {
    if (data[p] != root_data) result.verified = false;
  }
  result.data = std::move(data);
  return result;
}

namespace {

/// Reduce (sum lands at logical rank 0) or allreduce (sum everywhere).
CollectiveResult run_reduction(apps::SimCluster& cluster, std::size_t elements,
                               std::uint64_t seed,
                               bool all_ranks_hold_result) {
  const std::size_t p_count = cluster.size();
  const std::vector<std::size_t> order = hop_ordered_ranks(cluster);
  std::vector<DoubleVec> data(p_count);  // indexed by physical node
  DoubleVec expected(elements, 0.0);
  for (std::size_t p = 0; p < p_count; ++p) {
    data[p] = make_vector(elements, seed + p);
    for (std::size_t i = 0; i < elements; ++i) expected[i] += data[p][i];
  }

  sim::ProcessGroup group(*cluster.parallel());
  for (std::size_t l = 0; l < p_count; ++l) {
    const std::size_t phys = order[l];
    group.spawn_on(cluster.node_lp(phys),
                   (all_ranks_hold_result ? allreduce_rank : reduce_rank)(
                       Transport(cluster, phys), p_count, elements,
                       data[phys], order, l));
  }
  const Time total = group.join();

  CollectiveResult result;
  result.processors = p_count;
  result.interconnect = cluster.interconnect();
  result.payload = vec_bytes(elements);
  result.total = total;
  if (all_ranks_hold_result) {
    result.verified = true;
    for (std::size_t p = 0; p < p_count; ++p) {
      if (!sums_to(data[p], expected)) result.verified = false;
    }
  } else {
    result.verified = sums_to(data[order[0]], expected);
  }
  result.data = std::move(data);
  return result;
}

}  // namespace

CollectiveResult host_reduce(apps::SimCluster& cluster, std::size_t elements,
                             std::uint64_t seed) {
  return run_reduction(cluster, elements, seed,
                       /*all_ranks_hold_result=*/false);
}

CollectiveResult host_allreduce(apps::SimCluster& cluster,
                                std::size_t elements, std::uint64_t seed) {
  return run_reduction(cluster, elements, seed,
                       /*all_ranks_hold_result=*/true);
}

CollectiveResult host_alltoall(apps::SimCluster& cluster,
                               std::size_t elements, std::uint64_t seed) {
  const std::size_t p_count = cluster.size();
  // Value sent from s to d is a deterministic function of (s, d).
  auto block_for = [&](std::size_t s, std::size_t d) {
    return make_vector(elements, seed + s * 1000 + d);
  };
  std::vector<std::vector<bool>> got(p_count,
                                     std::vector<bool>(p_count, false));
  // One flag per rank: each coroutine may run on a different LP worker,
  // so a single shared bool would be a write-write race.  uint8_t (not
  // vector<bool>) keeps each rank's flag a distinct memory location.
  std::vector<std::uint8_t> rank_ok(p_count, 1);

  auto rank_proc = [&](std::size_t p) -> sim::Process {
    Transport t(cluster, p);
    sim::Engine& eng = t.engine();
    got[p][p] = true;  // own block stays local
    if (t.inic()) {
      // INIC: all streams go out concurrently under credit control.
      std::vector<std::unique_ptr<sim::Process>> sends;
      for (std::size_t r = 1; r < p_count; ++r) {
        const std::size_t dst = (p + r) % p_count;
        sends.push_back(std::make_unique<sim::Process>(
            t.send(dst, vec_bytes(elements), kAlltoallTagBase + r,
                   block_for(p, dst))));
        sends.back()->start(eng);
      }
      for (std::size_t r = 1; r < p_count; ++r) {
        proto::Message msg;
        co_await t.recv(kAlltoallTagBase + r, msg);
        const auto block = std::any_cast<DoubleVec>(std::move(msg.payload));
        const auto src = static_cast<std::size_t>(msg.src);
        got[p][src] = true;
        if (block != block_for(src, p)) rank_ok[p] = 0;
      }
      for (auto& s : sends) co_await *s;
    } else {
      // Host/TCP: serialized pairwise exchanges.
      for (std::size_t r = 1; r < p_count; ++r) {
        const std::size_t dst = (p + r) % p_count;
        sim::Process send = t.send(dst, vec_bytes(elements),
                                   kAlltoallTagBase + r, block_for(p, dst));
        send.start(eng);
        proto::Message msg;
        co_await t.recv(kAlltoallTagBase + r, msg);
        co_await send;
        const auto block = std::any_cast<DoubleVec>(std::move(msg.payload));
        const auto src = static_cast<std::size_t>(msg.src);
        got[p][src] = true;
        if (block != block_for(src, p)) rank_ok[p] = 0;
      }
    }
  };

  sim::ProcessGroup group(*cluster.parallel());
  for (std::size_t p = 0; p < p_count; ++p) {
    group.spawn_on(cluster.node_lp(p), rank_proc(p));
  }
  const Time total = group.join();

  CollectiveResult result;
  result.processors = p_count;
  result.interconnect = cluster.interconnect();
  result.payload = vec_bytes(elements);
  result.total = total;
  result.verified = true;
  for (std::uint8_t ok : rank_ok) {
    if (!ok) result.verified = false;
  }
  for (const auto& row : got) {
    for (bool b : row) {
      if (!b) result.verified = false;
    }
  }
  return result;
}

}  // namespace acc::coll::detail
