// Routed cluster fabric: N endpoints attached to a graph of
// store-and-forward switches with per-output-port buffering and
// drop-tail loss.
//
// The shape of the graph comes from net::TopologyConfig (star, 2/3-level
// fat tree, 2D/3D torus — see net/topology.hpp); the default single-star
// fabric is event-for-event identical to the flat one-switch model the
// paper's 8-16 node prototype implies, so all earlier golden digests
// hold.  Multi-hop topologies forward hop by hop: every switch charges
// its forwarding latency, queues the frame in the chosen output port's
// buffer (drop-tail when full), serializes it at the port's line rate,
// and hands it across the link to the next switch or the destination
// host.
//
// The INIC protocol's no-loss argument (Section 4.1: "the total amount of
// data put into the network never exceeds the total size of the network
// buffers") and TCP's loss/timeout behaviour both hinge on this buffer
// model, so it is explicit: every output port has a byte-capacity buffer;
// a burst that does not fit is dropped whole and counted.
//
// Fault hooks (driven by src/fault/, but usable directly): per-host link
// up/down (gated at injection, both directions), interior switch-switch
// link up/down (gated at forwarding time), uniform and Gilbert–Elliott
// bursty loss, frame corruption (delivered but CRC-failed at the
// endpoint), per-port line-rate degradation, and per-port buffer shrink.
// All are deterministic per seed and inert until configured.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "fault/gilbert_elliott.hpp"
#include "net/frame.hpp"
#include "net/lp_map.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "trace/counters.hpp"

namespace acc::sim {
class ParallelEngine;  // sim/parallel.hpp
}

namespace acc::net {

/// Anything that can terminate a link: a standard NIC or an INIC.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  /// Called when a frame has fully arrived at the device.
  virtual void deliver(const Frame& frame) = 0;
};

/// Fault-aware adaptive routing.  Off by default: with
/// `adaptive = false` the fabric forwards over the static topology
/// tables forever and emits no kRouting trace records, so every
/// pre-existing run (and its digest) is bit-identical.
///
/// With `adaptive = true` the fabric maintains a per-interior-link
/// health state driven by two deterministic signals:
///   * heartbeat probes — a physical state change schedules a detection
///     check 3 (down) or 2 (up) probe intervals of 100 us later; the
///     link is declared failed/recovered only if the state still holds
///     then (hysteresis: a flap shorter than the probe window never
///     reaches the routing plane);
///   * consecutive-drop counters — 3 back-to-back frames lost at a dark
///     interior port declare it failed immediately (data-driven fast
///     path); any successful forward resets the count.
/// The thresholds are named constants in network.cpp.
/// Gilbert–Elliott burst loss is applied at injection, never at interior
/// ports, so bursty loss cannot flap routes by construction.
/// A declared state change bumps the route epoch and re-converges the
/// next-port tables (see Fabric::request_reroute for the end-to-end
/// escalation path).
struct RoutingConfig {
  bool adaptive = false;
};

struct NetworkConfig {
  Bandwidth line_rate = Bandwidth::gbit_per_sec(1.0);
  Time link_latency = Time::micros(1.0);    // cable + PHY each way
  Time switch_latency = Time::micros(4.0);  // forwarding decision per hop
  Bytes port_buffer = Bytes::kib(512);      // output buffer per port
  TopologyConfig topology{};                // default: single star switch
  RoutingConfig routing{};                  // default: static tables
};

/// One store-and-forward switch: a set of output ports, each with a
/// byte-capacity buffer (drop-tail admission), an egress serializer at
/// the port's (possibly degraded) line rate, and a link-state flag.
/// Ports face either a host or a peer switch; the Fabric drives
/// forwarding and owns the routing decision.
class Switch {
 public:
  struct OutPort {
    int peer_switch = -1;  // >= 0: interior link to that switch
    int host = -1;         // >= 0: host-facing port
    Endpoint* endpoint = nullptr;
    std::unique_ptr<sim::FifoResource> egress;
    Bytes buffered = Bytes::zero();
    Bytes capacity = Bytes::zero();  // admission limit (fault-adjustable)
    Bytes peak = Bytes::zero();      // peak occupancy of this port
    double rate_factor = 1.0;        // (0, 1] of nominal line rate
    bool link_up = true;
    // Per-port tallies for interior_link_stats() and reports.
    std::uint64_t frames_out = 0;  // frames fully serialized out
    Bytes bytes_out = Bytes::zero();
    // Loss attribution.  Congestion (drop-tail overflow of a live port)
    // and link failure (a physically dark link) are different signals:
    // only the latter may feed the adaptive-routing consecutive-drop
    // fast path — an incast burst overflowing a healthy port must never
    // masquerade as a dead link.
    std::uint64_t drops_congestion = 0;  // drop-tail losses at this port
    std::uint64_t drops_link = 0;        // link-down/fault losses
    trace::Counter* congestion = nullptr;  // interior links only
  };

  Switch(int id, int level, std::size_t ports) : id_(id), level_(level) {
    ports_.resize(ports);
  }
  Switch(const Switch&) = delete;
  Switch& operator=(const Switch&) = delete;

  int id() const { return id_; }
  int level() const { return level_; }
  std::size_t port_count() const { return ports_.size(); }
  OutPort& out(std::size_t port) { return ports_.at(port); }
  const OutPort& out(std::size_t port) const { return ports_.at(port); }

  /// Drop-tail admission into one output buffer: false (and a counted
  /// congestion drop) when the whole burst does not fit, else the buffer
  /// grows and the per-port peak updates.
  bool admit(std::size_t port, Bytes wire) {
    auto& p = ports_.at(port);
    if (p.buffered + wire > p.capacity) {
      ++p.drops_congestion;
      return false;
    }
    p.buffered += wire;
    if (p.buffered > p.peak) p.peak = p.buffered;
    return true;
  }

  void release(std::size_t port, Bytes wire) {
    ports_.at(port).buffered -= wire;
  }

 private:
  int id_;
  int level_;
  std::vector<OutPort> ports_;
};

/// The routed fabric.  A default-constructed config is a single star
/// switch with the exact semantics (and trace stream) of the original
/// flat model.
class Fabric {
 public:
  /// Fabric over an LP partition of `plan` (docs/ENGINE.md ownership
  /// rules): every switch's mutable state — ports, buffers, egress
  /// serializers, per-lane counters — lives on its LP from `part` and is
  /// touched only by events executing on that LP's shard engine; an
  /// interior hop whose peer lives on another LP crosses via `pe.post()`
  /// at the link+switch latency (>= the partition's lookahead by
  /// construction).  Host-facing work (inject, delivery) runs on the
  /// host's edge-switch LP.  `plan` is the materialized `cfg.topology`
  /// the partition was derived from (std::invalid_argument when `part`
  /// does not cover its switches).  Both `pe` and `part` must outlive the
  /// fabric.  With net::one_lp_partition(plan) every switch and host runs
  /// on `pe.lp(0)`.  Fault hooks and adaptive routing mutate state across
  /// LPs and are rejected when `part` has several LPs (std::logic_error /
  /// std::invalid_argument).
  Fabric(sim::ParallelEngine& pe, const LpPartition& part, TopologyPlan plan,
         const NetworkConfig& cfg);

  /// Attaches the device that receives frames destined to `node`.
  void attach(int node, Endpoint& endpoint);

  /// Injects a frame whose transmit serialization *at the source device*
  /// is already accounted by the caller.  The fabric adds: ingress link
  /// latency, then per hop: switch forwarding latency, output-port
  /// buffering (with drop-tail loss, visible only through
  /// frames_dropped()), egress serialization at the port's line rate,
  /// and the egress link latency.  Senders learn of drops the way real
  /// ones do: by timeout.
  void inject(Frame frame);

  /// Per-port egress serialization resources (exposed so devices can rate
  /// their own transmit at the same line rate).
  Bandwidth line_rate() const { return cfg_.line_rate; }

  // ------------------------------------------------------------------
  // Topology and routing queries.
  // ------------------------------------------------------------------

  const TopologyPlan& plan() const { return plan_; }
  std::size_t switch_count() const { return switches_.size(); }
  int switch_level(int sw) const { return switches_.at(static_cast<std::size_t>(sw))->level(); }

  /// Switch ids a src->dst frame visits, in order (>= 1 entries).
  std::vector<int> route(int src, int dst) const;
  /// Number of switches a src->dst frame traverses.
  std::size_t hop_count(int src, int dst) const { return route(src, dst).size(); }

  /// End-to-end latency of a `wire`-byte frame from src's device to
  /// dst's device over an *idle* fabric, at the ports' current (possibly
  /// degraded) rates: ingress link + per hop (switch latency +
  /// serialization + link).  wire = 0 gives the pure propagation floor.
  /// This is what protocol timers should seed from — on a single star it
  /// reduces to link + switch + serialization + link.  Follows the
  /// *live* tables, so after a re-convergence it prices the alternate
  /// route the frames actually take.
  Time path_latency(int src, int dst, Bytes wire = Bytes::zero()) const;

  // ------------------------------------------------------------------
  // Adaptive routing (RoutingConfig; inert while adaptive = false).
  // ------------------------------------------------------------------

  /// Times the routing plane re-converged (0 until a link-health change
  /// is declared).  Same seed + same fault plan → same epoch trajectory.
  std::uint64_t route_epoch() const { return route_epoch_; }

  /// Interior links currently declared failed by the routing plane
  /// (normalized (min, max) switch pairs, ascending).
  std::vector<std::pair<int, int>> links_declared_down() const;

  /// All output ports of `sw` that lie on some minimal path to `dst`
  /// over the links the routing plane believes are up — the ECMP
  /// candidate set re-convergence picks from (ascending port index ==
  /// ascending link id; the live table holds candidates[dst % n]).  If
  /// `dst` attaches at `sw` this is just its host port; empty when `dst`
  /// is unreachable from `sw` over surviving links.
  std::vector<std::size_t> ecmp_ports(int sw, int dst) const;

  /// End-to-end failover escalation hook (INIC go-back-N and TCP RTO
  /// planes call this when their retry budgets run dry): walks the live
  /// route src -> dst, declares any physically-dark link on it failed
  /// (retry exhaustion is end-to-end evidence, so detection does not
  /// wait out the probe window), re-converges, and repeats until the
  /// route is clean or no alternate exists.  Returns true when the
  /// caller should re-arm and retry (the live route is now viable),
  /// false when routing is disabled or the destination is unreachable
  /// over surviving links — the caller then escalates terminally
  /// (PeerUnreachableError) exactly as before.
  bool request_reroute(int src, int dst);

  // Fabric statistics are trace counters: the report reads the same
  // instrumentation the trace timeline records.  In sharded mode each LP
  // accumulates into its own lane's counters (single writer) and these
  // accessors sum the lanes — a deterministic merge, because every
  // lane's total is itself thread-count independent.
  std::uint64_t frames_forwarded() const;
  std::uint64_t frames_dropped() const;
  std::uint64_t frames_dropped_link_down() const;
  std::uint64_t frames_dropped_burst() const;
  std::uint64_t frames_corrupted() const;
  /// Bytes of *clean* frames delivered to endpoints.  Corrupted frames'
  /// bytes are tallied separately (they cross the fabric but the
  /// endpoint discards them), and dropped bursts never count.
  Bytes bytes_forwarded() const;
  Bytes bytes_corrupted() const;

  /// Peak output-buffer occupancy seen on any port of any switch — used
  /// by tests of the paper's "fits in network buffers" claim.
  Bytes peak_buffer_occupancy() const;
  /// Peak occupancy of one host's final egress port.
  Bytes peak_buffer_occupancy(int node) const {
    return host_port(node).peak;
  }

  /// Per-directed-interior-link totals (empty on a star).  Losses are
  /// attributed to their cause (drop-tail overflow vs. a dark link) so
  /// the serving/incast analyses can tell an overloaded port from a
  /// failed one.
  struct InteriorLinkStats {
    int from_switch = -1;
    int to_switch = -1;
    std::uint64_t frames = 0;
    Bytes bytes = Bytes::zero();
    Bytes peak_queue = Bytes::zero();
    std::uint64_t drops_congestion = 0;
    std::uint64_t drops_link = 0;
  };
  std::vector<InteriorLinkStats> interior_link_stats() const;

  // ------------------------------------------------------------------
  // Fault hooks.  Every hook is deterministic: stochastic ones consume a
  // dedicated RNG stream seeded by the caller; state changes take effect
  // for frames *injected* after the call (interior link state: for
  // frames *forwarded* after the call).
  // ------------------------------------------------------------------

  /// Failure injection: independently drops each DATA frame with the
  /// given probability (control/ACK frames too — real bit errors do not
  /// discriminate).  Deterministic per seed.  Used by the reliability
  /// tests; off by default.
  void set_random_loss(double probability, std::uint64_t seed);

  /// Correlated (bursty) loss via a Gilbert–Elliott two-state chain that
  /// advances once per injected frame.  Replaces any previous burst-loss
  /// configuration; clear_burst_loss() disables it.
  void set_burst_loss(const fault::GilbertElliottParams& params,
                      std::uint64_t seed);
  void clear_burst_loss();

  /// Marks each surviving frame corrupted with the given probability.
  /// Corrupted frames traverse the fabric and are *delivered*; the
  /// endpoint fails their CRC and discards them (counted there, not as a
  /// network drop).  probability <= 0 disables.
  void set_corruption(double probability, std::uint64_t seed);

  /// Administrative/physical link state of one node's host port.  While
  /// down, every frame injected from or destined to that node is lost at
  /// the link (counted in both frames_dropped() and
  /// frames_dropped_link_down()).
  void set_link_state(int node, bool up);
  bool link_up(int node) const { return host_port(node).link_up; }

  /// Interior switch-switch link state (both directions).  While down,
  /// frames reaching either switch with the other as next hop are lost
  /// there, counted like host link drops.  Throws std::invalid_argument
  /// if the two switches are not adjacent.
  void set_interior_link_state(int sw_a, int sw_b, bool up);
  bool has_interior_link(int sw_a, int sw_b) const;

  /// Degrades (or restores) one host port's egress line rate to
  /// `factor` x nominal, e.g. a renegotiated 100 Mb/s link on a gigabit
  /// fabric.  factor must be in (0, 1]: factor <= 0 (or NaN) throws
  /// std::invalid_argument, factor > 1 clamps to 1, and factor = 1
  /// restores the exact nominal rate.  The unserved backlog queued at
  /// the old rate is re-timed at the new rate (frames whose serialization
  /// already completed or was already in flight keep their event times —
  /// see docs/NETWORK.md).
  void set_port_rate_factor(int node, double factor);
  double port_rate_factor(int node) const { return host_port(node).rate_factor; }

  /// Shrinks (or restores, factor = 1) one host port's output-buffer
  /// capacity to `factor` x configured.  Frames already buffered are
  /// unaffected; admission uses the new capacity.
  void set_port_buffer_factor(int node, double factor);

  /// True when the fabric's switches are spread over several LPs.
  bool sharded() const { return part_.lp_count > 1; }

 private:
  /// Per-LP fabric statistics: one lane of counters per LP, written only
  /// by that LP's worker; the public accessors sum the lanes.  A one-LP
  /// fabric has exactly one lane on pe_.lp(0).
  struct LaneCounters {
    trace::Counter* forwarded = nullptr;
    trace::Counter* dropped = nullptr;
    trace::Counter* bytes_forwarded = nullptr;
    trace::Counter* link_dropped = nullptr;
    trace::Counter* burst_dropped = nullptr;
    trace::Counter* corrupted = nullptr;
    trace::Counter* corrupted_bytes = nullptr;
  };
  /// Per-LP mutable scalars, cache-line isolated (distinct LPs write
  /// their own lane concurrently).  Frame ids are per-LP spaces: the id
  /// is (lane << 40) | local, which for lane 0 reduces to the historical
  /// 1, 2, 3, ... sequence bit-for-bit.
  struct alignas(64) LaneState {
    std::uint64_t next_frame_id = 1;
  };

  std::size_t lane_of_switch(int sw) const {
    return part_.lp_of_switch[static_cast<std::size_t>(sw)];
  }
  std::size_t lane_of_host(int host) const {
    return part_.lp_of_host[static_cast<std::size_t>(host)];
  }
  /// The engine owning switch `sw`.
  sim::Engine& switch_engine(int sw);
  /// The engine owning host `h`'s device-side events (its edge switch's).
  sim::Engine& host_engine(int host);
  /// Throws std::logic_error when sharded(): fault hooks mutate port state
  /// owned by other LPs with no delay, which the conservative windows
  /// cannot order.
  void require_unsharded(const char* what) const;

  /// Health the routing plane tracks per undirected interior link,
  /// keyed by the normalized (min, max) switch pair.
  struct LinkHealth {
    bool routed_up = true;        // what re-convergence believes
    int consecutive_drops = 0;    // back-to-back losses at a dark port
    std::uint64_t probe_epoch = 0;  // invalidates in-flight probe checks
  };

  Switch::OutPort& host_port(int node);
  const Switch::OutPort& host_port(int node) const;
  void forward_at(int sw, Frame frame);

  /// True while the physical interior link (both directions) is up.
  bool interior_phys_up(int sw_a, int sw_b) const;
  /// What the routing plane believes (defaults to up, links it has
  /// never heard about included).
  bool link_routed_up(int sw_a, int sw_b) const;
  /// Consecutive-drop fast path: a frame lost at a dark interior port.
  void note_interior_drop(int sw_a, int sw_b);
  /// A frame successfully serialized across an interior link.
  void note_interior_success(int sw_a, int sw_b);
  /// Heartbeat hysteresis: fires `probes` intervals after a physical
  /// state change; declares the link only if the state still holds and
  /// no newer change superseded this check (epoch match).
  void probe_check(int lo, int hi, std::uint64_t epoch, bool expect_up);
  /// Commits a routed-state change (traced under kRouting) and
  /// re-converges.  No-op if the link is already in that state.
  void declare_link(int lo, int hi, bool up);
  /// Rebuilds the live next-port tables over surviving links: ECMP among
  /// minimal paths, candidates in ascending link id, spread by
  /// `dst % candidates`.  Bumps route_epoch_.
  void reconverge();
  std::size_t live_port_to(int sw, int dst) const {
    return routing_.empty()
               ? plan_.port_to(sw, dst)
               : routing_[static_cast<std::size_t>(sw) * plan_.hosts.size() +
                          static_cast<std::size_t>(dst)];
  }

  sim::ParallelEngine& pe_;
  const LpPartition& part_;
  NetworkConfig cfg_;
  TopologyPlan plan_;
  std::vector<std::unique_ptr<Switch>> switches_;
  // Live next-port tables (empty until the first re-convergence; the
  // static plan_ tables serve until then, so the inert path allocates
  // and copies nothing).
  std::vector<std::uint16_t> routing_;
  std::map<std::pair<int, int>, LinkHealth> link_health_;
  std::uint64_t route_epoch_ = 0;
  trace::Counter* route_epochs_ = nullptr;      // net/route_epoch
  trace::Counter* reroute_requests_ = nullptr;  // net/reroute_requests
  double loss_probability_ = 0.0;
  std::unique_ptr<Rng> loss_rng_;
  std::unique_ptr<fault::GilbertElliott> burst_loss_;
  double corruption_probability_ = 0.0;
  std::unique_ptr<Rng> corruption_rng_;
  std::vector<LaneCounters> lane_counters_;  // one per LP
  std::vector<LaneState> lanes_;             // one per LP
};

}  // namespace acc::net
