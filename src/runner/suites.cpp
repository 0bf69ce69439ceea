#include "runner/suites.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "apps/cluster.hpp"
#include "apps/fft_app.hpp"
#include "apps/kv_app.hpp"
#include "apps/sort_app.hpp"
#include "collectives/collectives.hpp"
#include "core/experiment.hpp"
#include "fault/fault.hpp"
#include "model/calibration.hpp"
#include "model/fft_model.hpp"
#include "model/sort_model.hpp"
#include "net/topology.hpp"
#include "runner/bench_json.hpp"
#include "sim/process.hpp"

namespace acc::runner {

namespace {

/// Machine-friendly interconnect names for point names / JSON params
/// (to_string() is the human form, with spaces and parentheses).
const char* slug(apps::Interconnect ic) {
  switch (ic) {
    case apps::Interconnect::kFastEthernetTcp: return "fast_ethernet";
    case apps::Interconnect::kGigabitTcp: return "gige";
    case apps::Interconnect::kInicIdeal: return "inic_ideal";
    case apps::Interconnect::kInicPrototype: return "inic_prototype";
  }
  return "?";
}

std::string num(std::size_t v) { return std::to_string(v); }

/// Fills the digest/event fields every traced point reports.
void capture_run(apps::SimCluster& cluster, RunMetrics& m) {
  m.digest = cluster.digest();
  m.trace_records = cluster.trace_records();
  m.events = cluster.events_executed();
}

RunMetrics fft_sim_metrics(apps::Interconnect ic, std::size_t n,
                           std::size_t p) {
  const Time serial = core::serial_fft_total(n);
  apps::SimCluster cluster(p, ic);
  cluster.enable_tracing(/*ring_capacity=*/256);
  apps::FftRunOptions opts;
  opts.verify = false;
  const auto r = apps::run_parallel_fft(cluster, n, opts);
  RunMetrics m;
  m.sim_time = r.total;
  m.speedup = serial / r.total;
  m.counters = {{"compute_ns", r.compute.as_nanos()},
                {"transpose_ns", r.transpose.as_nanos()}};
  capture_run(cluster, m);
  return m;
}

RunMetrics sort_sim_metrics(apps::Interconnect ic, std::size_t keys,
                            std::size_t p) {
  const Time serial = core::serial_sort_total(keys);
  apps::SimCluster cluster(p, ic);
  cluster.enable_tracing(/*ring_capacity=*/256);
  apps::SortRunOptions opts;
  opts.verify = false;
  const auto r = apps::run_parallel_sort(cluster, keys, opts);
  // Communication is what the three sort phases leave of the total.
  const Time comm =
      p == 1 ? Time::zero()
             : r.total - r.count_sort - r.bucket_phase1 - r.bucket_phase2;
  const Bytes partition = model::SortAnalyticModel().partition_size(keys, p);
  RunMetrics m;
  m.sim_time = r.total;
  m.speedup = serial / r.total;
  m.counters = {{"count_sort_ns", r.count_sort.as_nanos()},
                {"bucket_phase1_ns", r.bucket_phase1.as_nanos()},
                {"bucket_phase2_ns", r.bucket_phase2.as_nanos()},
                {"redistribution_ns", r.redistribution.as_nanos()},
                {"comm_ns", comm.as_nanos()},
                {"partition_bytes",
                 static_cast<std::int64_t>(partition.count())}};
  capture_run(cluster, m);
  return m;
}

/// Sort run under a modified calibration (ablations).  No speedup — the
/// serial baseline of a non-default calibration is not what the ablation
/// compares against (each sweep is self-relative).  `dma_terms` adds the
/// two sides of Eq. 15's threshold: node 0's DMA efficiency on one
/// threshold-sized transfer and the accumulation delay of N = 256
/// buckets.
RunMetrics sort_ablation_metrics(const model::Calibration& cal,
                                 std::size_t keys, std::size_t p,
                                 bool dma_terms = false) {
  apps::SimCluster cluster(p, apps::Interconnect::kInicIdeal, cal);
  cluster.enable_tracing(/*ring_capacity=*/256);
  apps::SortRunOptions opts;
  opts.verify = false;
  const auto r = apps::run_parallel_sort(cluster, keys, opts);
  RunMetrics m;
  m.sim_time = r.total;
  m.counters = {{"redistribution_ns", r.redistribution.as_nanos()}};
  if (dma_terms) {
    const double efficiency =
        cluster.node(0).dma().efficiency(cal.dma_efficiency_threshold);
    m.counters.emplace_back("dma_efficiency_ppm",
                            std::llround(efficiency * 1e6));
    m.counters.emplace_back(
        "accumulation_delay_ns",
        model::SortAnalyticModel(cal).t_dfg(256).as_nanos());
  }
  capture_run(cluster, m);
  return m;
}

RunMetrics transpose_metrics(std::size_t n, std::size_t p) {
  model::FftAnalyticModel fft_model;
  const Time host_compute = fft_model.host_transpose_compute_time(n, p);
  const Time inic = fft_model.inic_transpose_time(n, p);
  const Bytes partition = fft_model.partition_size(n, p);
  apps::SimCluster cluster(p, apps::Interconnect::kGigabitTcp);
  cluster.enable_tracing(/*ring_capacity=*/256);
  apps::FftRunOptions opts;
  opts.verify = false;
  const auto r = apps::run_parallel_fft(cluster, n, opts);
  const Time comm = p == 1 ? Time::zero() : r.transpose - host_compute;
  RunMetrics m;
  m.sim_time = r.total;
  m.counters = {{"nic_comm_ns", comm.as_nanos()},
                {"nic_compute_ns", host_compute.as_nanos()},
                {"inic_transpose_ns", inic.as_nanos()},
                {"partition_bytes",
                 static_cast<std::int64_t>(partition.count())}};
  capture_run(cluster, m);
  return m;
}

// ---------------------------------------------------------------------
// Figure and ablation suites.
// ---------------------------------------------------------------------

/// Rank counts of the figure suites (P <= 4 in the reduced grid).
std::vector<std::size_t> figure_procs(bool reduced) {
  return reduced ? std::vector<std::size_t>{1, 2, 4}
                 : std::vector<std::size_t>{1, 2, 4, 8, 16};
}

std::vector<std::size_t> fft_sizes(bool reduced) {
  return reduced ? std::vector<std::size_t>{64}
                 : std::vector<std::size_t>{256, 512};
}

std::size_t sort_keys(bool reduced) {
  return reduced ? (std::size_t{1} << 16) : (std::size_t{1} << 25);
}

/// Problem size and rank count of the calibration ablations.
std::size_t ablation_keys(bool reduced) {
  return reduced ? (std::size_t{1} << 16) : (std::size_t{1} << 24);
}

std::size_t ablation_p(bool reduced) { return reduced ? 4 : 8; }

// Figure 8(a): FFT speedup across the three interconnect families.
std::vector<RunPoint> fig8a_points(bool reduced) {
  std::vector<RunPoint> points;
  for (auto ic : {apps::Interconnect::kInicPrototype,
                  apps::Interconnect::kFastEthernetTcp,
                  apps::Interconnect::kGigabitTcp}) {
    for (std::size_t n : fft_sizes(reduced)) {
      for (std::size_t p : figure_procs(reduced)) {
        points.push_back(RunPoint{
            "fig8a_fft_sim",
            std::string(slug(ic)) + "/n=" + num(n) + "/P=" + num(p),
            {{"interconnect", slug(ic)}, {"n", num(n)}, {"P", num(p)}},
            [ic, n, p] { return fft_sim_metrics(ic, n, p); }});
      }
    }
  }
  return points;
}

// Figure 8(b): sort speedup, prototype vs GigE vs ideal INIC.
std::vector<RunPoint> fig8b_points(bool reduced) {
  const std::size_t keys = sort_keys(reduced);
  std::vector<RunPoint> points;
  for (auto ic : {apps::Interconnect::kInicPrototype,
                  apps::Interconnect::kGigabitTcp,
                  apps::Interconnect::kInicIdeal}) {
    for (std::size_t p : figure_procs(reduced)) {
      points.push_back(RunPoint{
          "fig8b_sort_sim",
          std::string(slug(ic)) + "/keys=" + num(keys) + "/P=" + num(p),
          {{"interconnect", slug(ic)}, {"keys", num(keys)}, {"P", num(p)}},
          [ic, keys, p] { return sort_sim_metrics(ic, keys, p); }});
    }
  }
  return points;
}

// Figure 4(b): transpose decomposition (GigE, largest FFT size).
std::vector<RunPoint> fig4b_points(bool reduced) {
  const std::size_t n = fft_sizes(reduced).back();
  std::vector<RunPoint> points;
  for (std::size_t p : figure_procs(reduced)) {
    if (n % p != 0) continue;
    points.push_back(RunPoint{
        "fig4b_transpose",
        "gige/n=" + num(n) + "/P=" + num(p),
        {{"interconnect", "gige"}, {"n", num(n)}, {"P", num(p)}},
        [n, p] { return transpose_metrics(n, p); }});
  }
  return points;
}

// Figure 5(a): sort component times (GigE).
std::vector<RunPoint> fig5a_points(bool reduced) {
  const std::size_t keys = sort_keys(reduced);
  std::vector<RunPoint> points;
  for (std::size_t p : figure_procs(reduced)) {
    points.push_back(RunPoint{
        "fig5a_sort_components",
        "gige/keys=" + num(keys) + "/P=" + num(p),
        {{"interconnect", "gige"}, {"keys", num(keys)}, {"P", num(p)}},
        [keys, p] {
          return sort_sim_metrics(apps::Interconnect::kGigabitTcp, keys, p);
        }});
  }
  return points;
}

// Ablation: INIC packet size (Section 4.2 — expected nearly flat).
std::vector<RunPoint> packet_size_points(bool reduced) {
  const std::size_t keys = ablation_keys(reduced);
  const std::size_t p = ablation_p(reduced);
  const std::vector<std::uint64_t> packets =
      reduced ? std::vector<std::uint64_t>{256, 1024, 4096}
              : std::vector<std::uint64_t>{256, 512, 1024, 2048, 4096};
  std::vector<RunPoint> points;
  for (std::uint64_t packet : packets) {
    model::Calibration cal = model::default_calibration();
    cal.inic_packet = Bytes(packet);
    points.push_back(RunPoint{
        "ablation_packet_size",
        "packet=" + std::to_string(packet) + "/P=" + num(p),
        {{"packet_bytes", std::to_string(packet)},
         {"keys", num(keys)},
         {"P", num(p)}},
        [cal, keys, p] { return sort_ablation_metrics(cal, keys, p); }});
  }
  return points;
}

// Ablation: card-to-host DMA threshold (Equation 15's 64 KB knee).
std::vector<RunPoint> dma_threshold_points(bool reduced) {
  const std::size_t keys = ablation_keys(reduced);
  const std::size_t p = ablation_p(reduced);
  const std::vector<std::uint64_t> thresholds_kib =
      reduced ? std::vector<std::uint64_t>{16, 64, 256}
              : std::vector<std::uint64_t>{4, 16, 32, 64, 128, 256};
  std::vector<RunPoint> points;
  for (std::uint64_t kib : thresholds_kib) {
    model::Calibration cal = model::default_calibration();
    cal.dma_efficiency_threshold = Bytes::kib(kib);
    points.push_back(RunPoint{
        "ablation_dma_threshold",
        "thr=" + std::to_string(kib) + "KiB/P=" + num(p),
        {{"threshold_kib", std::to_string(kib)},
         {"keys", num(keys)},
         {"P", num(p)}},
        [cal, keys, p] {
          return sort_ablation_metrics(cal, keys, p, /*dma_terms=*/true);
        }});
  }
  return points;
}

/// One topology-scaling point: barrier + topology-aware broadcast and
/// reduce (1 KiB of doubles each) on an ideal-INIC cluster wired as
/// `topo`.  Counters summarize the fabric and its per-link congestion
/// tallies; verification failures throw so the runner marks the point
/// failed instead of reporting bogus numbers.
RunMetrics topology_metrics(const net::TopologyConfig& topo, std::size_t p) {
  apps::ClusterOptions opts;
  opts.topology = topo;
  apps::SimCluster cluster(p, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), opts);
  cluster.enable_tracing(/*ring_capacity=*/256);
  const auto bar = coll::barrier(cluster);
  const auto bcast = coll::topology_broadcast(cluster, /*elements=*/128,
                                              /*seed=*/9);
  const auto red = coll::topology_reduce(cluster, /*elements=*/128,
                                         /*seed=*/11);
  if (!bar.verified || !bcast.verified || !red.verified) {
    throw std::runtime_error("topology collective failed verification");
  }
  net::Fabric& net = cluster.network();
  std::int64_t link_frames_total = 0;
  std::int64_t link_frames_max = 0;
  std::int64_t link_peak_queue_max = 0;
  const auto links = net.interior_link_stats();
  for (const auto& l : links) {
    const auto frames = static_cast<std::int64_t>(l.frames);
    link_frames_total += frames;
    link_frames_max = std::max(link_frames_max, frames);
    link_peak_queue_max =
        std::max(link_peak_queue_max,
                 static_cast<std::int64_t>(l.peak_queue.count()));
  }
  RunMetrics m;
  m.sim_time = bar.total + bcast.total + red.total;
  m.counters = {
      {"switches", static_cast<std::int64_t>(net.switch_count())},
      {"interior_links", static_cast<std::int64_t>(links.size())},
      {"link_frames_total", link_frames_total},
      {"link_frames_max", link_frames_max},
      {"link_peak_queue_max_bytes", link_peak_queue_max},
      {"frames_forwarded", static_cast<std::int64_t>(net.frames_forwarded())},
      {"frames_dropped", static_cast<std::int64_t>(net.frames_dropped())}};
  capture_run(cluster, m);
  return m;
}

/// One collectives-suite point: barrier + topology-aware allreduce on a
/// cluster wired as `topo`, with the collective backend under test.
/// The host backend runs over GigE TCP (the paper's software baseline);
/// the NIC backend runs on the ideal INIC whose cards host the trigger
/// tables.  The unbounded tracer ring lets us count every kCpu / kIrq
/// record the run emitted — the host-cost signal the NIC engine is
/// supposed to drive to zero.
RunMetrics collective_metrics(apps::CollectiveBackend backend,
                              const net::TopologyConfig& topo,
                              std::size_t p, std::size_t elements) {
  apps::ClusterOptions opts;
  opts.topology = topo;
  opts.collective_backend = backend;
  const auto ic = backend == apps::CollectiveBackend::kNic
                      ? apps::Interconnect::kInicIdeal
                      : apps::Interconnect::kGigabitTcp;
  apps::SimCluster cluster(p, ic, model::default_calibration(), opts);
  cluster.tracer().enable(/*ring_capacity=*/0);  // retain all records
  const auto bar = coll::barrier(cluster);
  const auto red = coll::topology_allreduce(cluster, elements, /*seed=*/7);
  if (!bar.verified || !red.verified) {
    throw std::runtime_error("collective failed verification");
  }
  std::int64_t host_cpu_events = 0;
  std::int64_t irq_events = 0;
  for (const auto& r : cluster.tracer().records()) {
    if (r.category == trace::Category::kCpu) ++host_cpu_events;
    if (r.category == trace::Category::kIrq) ++irq_events;
  }
  std::int64_t irq_delivered = 0;
  std::int64_t host_cpu_ns = 0;
  for (std::size_t i = 0; i < p; ++i) {
    hw::Cpu& cpu = cluster.node(i).cpu();
    irq_delivered += static_cast<std::int64_t>(cpu.interrupts_serviced());
    host_cpu_ns += cpu.total_compute_time().as_nanos() +
                   cpu.total_interrupt_time().as_nanos() +
                   cpu.total_protocol_time().as_nanos();
  }
  std::int64_t trigger_fires = 0;
  if (backend == apps::CollectiveBackend::kNic) {
    for (std::size_t i = 0; i < p; ++i) {
      trigger_fires +=
          static_cast<std::int64_t>(cluster.card(i).trigger_fires());
    }
  }
  RunMetrics m;
  // ProcessGroup::join() reports absolute finish times, so the second
  // op's total is the whole timeline; the barrier column is its own.
  m.sim_time = red.total;
  m.counters = {{"barrier_ns", bar.total.as_nanos()},
                {"allreduce_ns", (red.total - bar.total).as_nanos()},
                {"host_cpu_events", host_cpu_events},
                {"irq_events", irq_events},
                {"irq_delivered", irq_delivered},
                {"host_cpu_ns", host_cpu_ns},
                {"trigger_fires", trigger_fires}};
  capture_run(cluster, m);
  return m;
}

// ---------------------------------------------------------------------
// Failover-recovery suite.
// ---------------------------------------------------------------------

apps::ClusterOptions failover_cluster_options(
    const net::TopologyConfig& topo, apps::CollectiveBackend backend) {
  apps::ClusterOptions opts;
  opts.inic_hw_retransmit = true;  // go-back-N is the recovery engine
  opts.inic_max_retries = 8;
  opts.degraded_fallback = false;  // fabric failover must carry the day
  opts.adaptive_routing = true;
  opts.topology = topo;
  opts.collective_backend = backend;
  return opts;
}

/// Interior links incident to host 0's attach switch, normalized and
/// deduplicated — the cut candidates (host 0's off-switch traffic is
/// guaranteed to cross one of them).
std::vector<std::pair<int, int>> failover_cut_candidates(net::Fabric& net) {
  const auto& plan = net.plan();
  const int sw = plan.hosts.front().sw;
  std::vector<std::pair<int, int>> links;
  for (const auto& port : plan.switches[static_cast<std::size_t>(sw)].ports) {
    if (port.peer_switch < 0) continue;
    const auto key = std::make_pair(std::min(sw, port.peer_switch),
                                    std::max(sw, port.peer_switch));
    if (std::find(links.begin(), links.end(), key) == links.end()) {
      links.push_back(key);
    }
  }
  return links;
}

/// One failover point: allreduce spanning `cuts` permanent interior-link
/// failures, a broadcast after re-convergence, then a 256 KiB bulk
/// transfer over the re-converged route to measure post-failover
/// goodput.  Recovery latency is the gap from the first cut's fault edge
/// to the fabric's first re-convergence instant (kRouting records).
RunMetrics failover_metrics(apps::CollectiveBackend backend,
                            const net::TopologyConfig& topo, std::size_t p,
                            int cuts) {
  constexpr std::size_t kElements = 256;
  // Healthy yardstick: the same collectives with no faults, used to
  // place the cut instants at meaningful fractions of the timeline.
  Time clean = Time::zero();
  {
    apps::SimCluster cluster(p, apps::Interconnect::kInicIdeal,
                             model::default_calibration(),
                             failover_cluster_options(topo, backend));
    if (!coll::topology_allreduce(cluster, kElements, 5).verified ||
        !coll::topology_broadcast(cluster, kElements, 6).verified) {
      throw std::runtime_error("clean collective failed verification");
    }
    clean = cluster.engine().now();
  }

  apps::SimCluster cluster(p, apps::Interconnect::kInicIdeal,
                           model::default_calibration(),
                           failover_cluster_options(topo, backend));
  cluster.tracer().enable(/*ring_capacity=*/0);  // retain kRouting records
  cluster.engine().set_time_budget(Time::seconds(5));
  const auto links = failover_cut_candidates(cluster.network());
  if (links.size() <= static_cast<std::size_t>(cuts)) {
    throw std::runtime_error("cut plan would strand the attach switch");
  }
  const Time first_cut = clean * 0.25;
  fault::FaultPlan plan;
  for (int c = 0; c < cuts; ++c) {
    plan.with_interior_link_failed(links[static_cast<std::size_t>(c)].first,
                                   links[static_cast<std::size_t>(c)].second,
                                   clean * (0.25 + 0.15 * c));
  }
  fault::FaultInjector injector(cluster, plan);

  const auto ar = coll::topology_allreduce(cluster, kElements, 5);
  const auto bc = coll::topology_broadcast(cluster, kElements, 6);
  if (!ar.verified || !bc.verified) {
    throw std::runtime_error("faulted collective failed verification");
  }
  const Time collectives_end = cluster.engine().now();

  // Post-failover goodput: one bulk message host 0 -> host p-1, timed
  // end to end (send through delivery) over the re-converged tables.
  const Bytes bulk = Bytes::kib(256);
  {
    sim::ProcessGroup group(*cluster.parallel());
    group.spawn(cluster.transfer(0, static_cast<int>(p) - 1, bulk, 77));
    group.spawn([](apps::SimCluster& c, std::size_t dst) -> sim::Process {
      (void)co_await c.inbox(dst).recv();
    }(cluster, p - 1));
    group.join();
  }
  const Time bulk_time = cluster.engine().now() - collectives_end;

  // First re-convergence at or after the first cut.
  Time reconverged = Time::zero();
  for (const auto& r : cluster.tracer().records()) {
    if (r.category != trace::Category::kRouting) continue;
    if (std::strcmp(r.name, "routing/reconverge") != 0) continue;
    if (r.ts < first_cut) continue;
    reconverged = r.ts;
    break;
  }
  std::uint64_t peers_lost = 0;
  std::uint64_t reroute_grants = 0;
  for (std::size_t i = 0; i < p; ++i) {
    peers_lost += cluster.card(i).peers_lost();
    reroute_grants += cluster.card(i).reroutes();
  }
  if (peers_lost != 0) {
    throw std::runtime_error("failover wrote a peer off as unreachable");
  }
  std::int64_t reroute_requests = 0;
  for (const auto& s : cluster.counters_snapshot()) {
    if (s.name == "net/reroute_requests") {
      reroute_requests = s.value;
    }
  }

  RunMetrics m;
  m.sim_time = cluster.engine().now();
  m.counters = {
      {"clean_ns", clean.as_nanos()},
      {"faulted_ns", collectives_end.as_nanos()},
      {"cut_ns", first_cut.as_nanos()},
      {"recovery_latency_ns", (reconverged - first_cut).as_nanos()},
      {"route_epochs",
       static_cast<std::int64_t>(cluster.network().route_epoch())},
      {"reroute_requests", reroute_requests},
      {"reroute_grants", static_cast<std::int64_t>(reroute_grants)},
      {"goodput_bytes_per_s",
       static_cast<std::int64_t>(static_cast<double>(bulk.count()) /
                                 bulk_time.as_seconds())},
  };
  capture_run(cluster, m);
  return m;
}

// ---------------------------------------------------------------------
// Chaos-recovery suite.
// ---------------------------------------------------------------------

apps::ClusterOptions chaos_cluster_options() {
  apps::ClusterOptions opts;
  opts.inic_hw_retransmit = true;
  opts.inic_max_retries = 16;
  opts.degraded_fallback = true;
  return opts;
}

constexpr std::size_t kChaosFftN = 256;
constexpr std::size_t kChaosSortKeys = std::size_t{1} << 16;

/// Clean-run durations, memoized process-wide (thread-safe static init)
/// so pooled points share one baseline measurement per app.
Time chaos_clean_total(bool fft) {
  static const Time fft_total = [] {
    apps::SimCluster cluster(4, apps::Interconnect::kInicIdeal,
                             model::default_calibration(),
                             chaos_cluster_options());
    return apps::run_parallel_fft(cluster, kChaosFftN, {}).total;
  }();
  static const Time sort_total = [] {
    apps::SimCluster cluster(4, apps::Interconnect::kInicIdeal,
                             model::default_calibration(),
                             chaos_cluster_options());
    apps::SortRunOptions opts;
    opts.verify = false;
    return apps::run_parallel_sort(cluster, kChaosSortKeys, opts).total;
  }();
  return fft ? fft_total : sort_total;
}

fault::FaultPlan chaos_plan_none(Time) { return {}; }

fault::FaultPlan chaos_plan_burst_loss(Time clean) {
  fault::GilbertElliottParams ge;
  ge.p_good_to_bad = 0.05;
  ge.p_bad_to_good = 0.25;
  ge.loss_bad = 0.5;
  fault::FaultPlan plan;
  plan.with_burst_loss(clean * 0.05, clean * 3.0, ge);
  return plan;
}

fault::FaultPlan chaos_plan_corruption(Time clean) {
  fault::FaultPlan plan;
  plan.with_corruption(clean * 0.05, clean * 3.0, 0.05);
  return plan;
}

fault::FaultPlan chaos_plan_link_flap(Time clean) {
  fault::FaultPlan plan;
  plan.with_link_down(1, clean * 0.30, clean * 0.05);
  return plan;
}

fault::FaultPlan chaos_plan_card_reset(Time clean) {
  fault::FaultPlan plan;
  plan.with_card_reset(2, clean * 0.10, clean * 0.25);
  return plan;
}

fault::FaultPlan chaos_plan_slow_port(Time clean) {
  fault::FaultPlan plan;
  plan.with_port_degrade(1, clean * 0.10, clean * 0.60, /*rate_factor=*/0.1);
  return plan;
}

fault::FaultPlan chaos_plan_everything(Time clean) {
  fault::FaultPlan plan = chaos_plan_burst_loss(clean);
  plan.with_corruption(clean * 0.05, clean * 3.0, 0.05)
      .with_link_down(1, clean * 0.40, clean * 0.05)
      .with_card_reset(2, clean * 0.10, clean * 0.25);
  return plan;
}

/// One chaos point: the scenario's fault plan against a verified FFT or
/// sort run on the hardened 4-node INIC cluster.
RunMetrics chaos_recovery_metrics(bool fft,
                                  fault::FaultPlan (*make_plan)(Time)) {
  const Time clean = chaos_clean_total(fft);
  apps::SimCluster cluster(4, apps::Interconnect::kInicIdeal,
                           model::default_calibration(),
                           chaos_cluster_options());
  cluster.enable_tracing(/*ring_capacity=*/256);
  cluster.engine().set_time_budget(Time::seconds(30));
  fault::FaultInjector injector(cluster, make_plan(clean));
  Time total = Time::zero();
  bool verified = false;
  if (fft) {
    apps::FftRunOptions opts;
    opts.verify = true;
    const auto r = apps::run_parallel_fft(cluster, kChaosFftN, opts);
    total = r.total;
    verified = r.verified;
  } else {
    apps::SortRunOptions opts;
    opts.verify = true;
    const auto r = apps::run_parallel_sort(cluster, kChaosSortKeys, opts);
    total = r.total;
    verified = r.verified;
  }
  if (!verified) {
    throw std::runtime_error("faulted run failed verification");
  }
  std::int64_t retransmits = 0;
  std::int64_t crc_drops = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    retransmits += static_cast<std::int64_t>(cluster.card(i).retransmits());
    crc_drops += static_cast<std::int64_t>(cluster.card(i).crc_drops());
  }
  RunMetrics m;
  m.sim_time = total;
  m.counters = {
      {"clean_ns", clean.as_nanos()},
      {"faulted_ns", total.as_nanos()},
      {"fault_events", static_cast<std::int64_t>(injector.events_fired())},
      {"fallback_transfers",
       static_cast<std::int64_t>(cluster.fallback_transfers())},
      {"retransmits", retransmits},
      {"crc_drops", crc_drops},
      {"net_drops",
       static_cast<std::int64_t>(cluster.network().frames_dropped())},
  };
  capture_run(cluster, m);
  return m;
}

// ---------------------------------------------------------------------
// Serving suite (open-loop KV tail latency, apps/kv_app.hpp).
// ---------------------------------------------------------------------

constexpr std::size_t kServingClients = 4;
constexpr std::size_t kServingServers = 4;

apps::ClusterOptions serving_cluster_options(bool nic,
                                             const net::TopologyConfig& topo) {
  apps::ClusterOptions opts;
  opts.topology = topo;
  if (nic) {
    opts.inic_hw_retransmit = true;
    // Retry forever: under chaos the SLO question is "how *late* does a
    // response get", never "does it arrive" — a give-up would turn a
    // tail-latency point into a deadlock.
    opts.inic_max_retries = 0;
  }
  return opts;
}

/// The "30% loss" headline scenario: a Gilbert-Elliott channel that
/// spends 1/3 of its time (0.1 in, 0.2 out) in a bad state dropping 90%
/// of frames — ~30% average loss, in bursts rather than i.i.d., covering
/// the whole run.
fault::FaultPlan serving_chaos_plan() {
  fault::GilbertElliottParams ge;
  ge.p_good_to_bad = 0.1;
  ge.p_bad_to_good = 0.2;
  ge.loss_bad = 0.9;
  fault::FaultPlan plan;
  plan.with_burst_loss(Time::micros(50), Time::seconds(2), ge);
  return plan;
}

RunMetrics serving_metrics(bool nic, net::TopologyConfig topo, bool chaos,
                           double rate_hz, std::size_t requests_per_client) {
  apps::SimCluster cluster(
      kServingClients + kServingServers,
      nic ? apps::Interconnect::kInicIdeal : apps::Interconnect::kGigabitTcp,
      model::default_calibration(), serving_cluster_options(nic, topo));
  cluster.enable_tracing(/*ring_capacity=*/256);
  cluster.engine().set_time_budget(Time::seconds(60));
  std::optional<fault::FaultInjector> injector;
  if (chaos) injector.emplace(cluster, serving_chaos_plan());
  apps::KvRunOptions opts;
  opts.clients = kServingClients;
  opts.servers = kServingServers;
  opts.requests_per_client = requests_per_client;
  opts.rate_hz = rate_hz;
  const auto r = apps::run_kv_serving(cluster, opts);
  if (!r.verified) {
    throw std::runtime_error("serving run failed verification");
  }
  RunMetrics m;
  m.sim_time = r.total;
  m.latency.present = true;
  m.latency.count = r.latency.count();
  m.latency.p50_ns = r.latency.percentile_ns(0.50);
  m.latency.p99_ns = r.latency.percentile_ns(0.99);
  m.latency.p999_ns = r.latency.percentile_ns(0.999);
  m.latency.mean_ns = r.latency.mean_ns();
  m.latency.max_ns = r.latency.max_ns();
  m.latency.goodput_bytes_per_sec = r.goodput_bytes_per_sec;
  m.counters = {
      {"requests", static_cast<std::int64_t>(r.requests)},
      {"responses", static_cast<std::int64_t>(r.responses)},
      {"p50_ns", static_cast<std::int64_t>(m.latency.p50_ns)},
      {"p99_ns", static_cast<std::int64_t>(m.latency.p99_ns)},
      {"p999_ns", static_cast<std::int64_t>(m.latency.p999_ns)},
      {"goodput_bytes_per_sec", r.goodput_bytes_per_sec},
      {"net_drops",
       static_cast<std::int64_t>(cluster.network().frames_dropped())},
      {"fault_events",
       injector ? static_cast<std::int64_t>(injector->events_fired()) : 0},
  };
  capture_run(cluster, m);
  return m;
}

std::vector<RunPoint> serving_points(bool reduced) {
  struct Grid {
    const char* topo_label;  // "topology" param
    net::TopologyConfig config;
    double rate_hz;
    bool full_only;
  };
  const std::vector<Grid> grid = {
      {"star", net::TopologyConfig::star(), 20000.0, false},
      {"star", net::TopologyConfig::star(), 80000.0, true},
      {"fattree2", net::TopologyConfig::fat_tree(2), 20000.0, true},
  };
  const std::size_t requests_per_client = reduced ? 32 : 192;
  std::vector<RunPoint> points;
  for (const auto& g : grid) {
    if (reduced && g.full_only) continue;
    for (const bool nic : {false, true}) {
      for (const bool chaos : {false, true}) {
        const net::TopologyConfig topo = g.config;
        const double rate = g.rate_hz;
        const std::string rate_str =
            std::to_string(static_cast<long long>(rate));
        points.push_back(RunPoint{
            "serving_tail",
            std::string(nic ? "nic" : "host") + "/" + g.topo_label +
                "/rate=" + rate_str + "/" + (chaos ? "loss30" : "clean"),
            {{"plane", nic ? "nic" : "host"},
             {"topology", g.topo_label},
             {"rate_hz", rate_str},
             {"chaos", chaos ? "loss30" : "clean"},
             {"clients", num(kServingClients)},
             {"servers", num(kServingServers)},
             {"requests_per_client", num(requests_per_client)}},
            [nic, topo, chaos, rate, requests_per_client] {
              return serving_metrics(nic, topo, chaos, rate,
                                     requests_per_client);
            }});
      }
    }
  }
  return points;
}

/// The host point matching a NIC serving point: same params but the plane.
const RunRecord* matched_host(const std::vector<RunRecord>& records,
                              const RunRecord& nic) {
  for (const auto& r : records) {
    if (r.param("plane") != "host") continue;
    if (r.param("topology") == nic.param("topology") &&
        r.param("rate_hz") == nic.param("rate_hz") &&
        r.param("chaos") == nic.param("chaos")) {
      return &r;
    }
  }
  return nullptr;
}

/// The tail gate: under the same conditions the hardware retransmission
/// plane must hold a strictly better p99 than the host's timeout-bound
/// recovery (and no worse on a clean fabric, where both planes are
/// loss-free and the INIC should win on host costs alone).
int tail_gate(const std::vector<RunRecord>& records) {
  int regressions = 0;
  for (const auto& r : records) {
    if (!r.ok || r.param("plane") != "nic") continue;
    const RunRecord* host = matched_host(records, r);
    if (host == nullptr || !host->ok) continue;
    const bool chaos = r.param("chaos") != "clean";
    const std::uint64_t nic_p99 = r.metrics.latency.p99_ns;
    const std::uint64_t host_p99 = host->metrics.latency.p99_ns;
    const bool bad = chaos ? nic_p99 >= host_p99 : nic_p99 > host_p99;
    if (bad) {
      ++regressions;
      std::fprintf(stderr,
                   "TAIL REGRESSION %s: NIC p99 %llu ns vs host %llu ns\n",
                   r.name.c_str(), static_cast<unsigned long long>(nic_p99),
                   static_cast<unsigned long long>(host_p99));
    }
  }
  if (regressions == 0) {
    std::puts("tail check passed: the NIC plane holds a better p99 than "
              "the host plane at every matched point");
  }
  return regressions;
}

std::vector<RunPoint> failover_points(bool reduced) {
  struct Grid {
    const char* label;   // "topology" param
    net::TopologyConfig config;
    std::size_t p;
    int cuts;
    bool full_only;
  };
  const std::vector<Grid> grid = {
      {"fattree2", net::TopologyConfig::fat_tree(2), 16, 1, false},
      {"fattree2", net::TopologyConfig::fat_tree(2), 16, 2, true},
      {"fattree3", net::TopologyConfig::fat_tree(3), 16, 1, true},
      {"torus2", net::TopologyConfig::torus(2), 8, 1, false},
      {"torus3", net::TopologyConfig::torus(3, 2, 2, 2), 8, 2, true},
  };
  std::vector<RunPoint> points;
  for (const auto& g : grid) {
    if (reduced && g.full_only) continue;
    for (auto backend : {apps::CollectiveBackend::kHost,
                         apps::CollectiveBackend::kNic}) {
      const net::TopologyConfig topo = g.config;
      const std::size_t p = g.p;
      const int cuts = g.cuts;
      points.push_back(RunPoint{
          "failover_recovery",
          std::string(apps::to_string(backend)) + "/" + g.label +
              "/P=" + num(p) + "/cuts=" + std::to_string(cuts),
          {{"collective_backend", apps::to_string(backend)},
           {"topology", g.label},
           {"P", num(p)},
           {"cuts", std::to_string(cuts)}},
          [backend, topo, p, cuts] {
            return failover_metrics(backend, topo, p, cuts);
          }});
    }
  }
  return points;
}

/// The recovery gate: every point must have recovered through the
/// fabric — at least one re-convergence per cut, and a live
/// post-failover route.
int recovery_gate(const std::vector<RunRecord>& records) {
  int regressions = 0;
  for (const auto& r : records) {
    if (!r.ok) continue;
    const auto cuts = std::stoll(r.param("cuts"));
    if (r.counter("route_epochs") < cuts ||
        r.counter("goodput_bytes_per_s") <= 0) {
      ++regressions;
      std::fprintf(stderr,
                   "RECOVERY REGRESSION %s: %lld epochs for %lld cuts, "
                   "goodput %lld B/s\n",
                   r.name.c_str(),
                   static_cast<long long>(r.counter("route_epochs")),
                   static_cast<long long>(cuts),
                   static_cast<long long>(r.counter("goodput_bytes_per_s")));
    }
  }
  if (regressions == 0) {
    std::puts("recovery check passed: every point re-converged and moved "
              "bulk data over the surviving paths");
  }
  return regressions;
}

std::vector<RunPoint> chaos_recovery_points(bool reduced) {
  struct Scenario {
    const char* label;
    fault::FaultPlan (*plan)(Time);
    bool full_only;
  };
  const std::vector<Scenario> scenarios = {
      {"clean", chaos_plan_none, false},
      {"burst_loss", chaos_plan_burst_loss, false},
      {"corruption", chaos_plan_corruption, true},
      {"link_flap", chaos_plan_link_flap, true},
      {"card_reset", chaos_plan_card_reset, false},
      {"slow_port", chaos_plan_slow_port, true},
      {"everything", chaos_plan_everything, true},
  };
  std::vector<RunPoint> points;
  for (const auto& s : scenarios) {
    if (reduced && s.full_only) continue;
    for (const bool fft : {true, false}) {
      if (reduced && !fft) continue;  // reduced grid: FFT only
      auto plan = s.plan;
      points.push_back(RunPoint{
          "chaos_recovery",
          std::string(fft ? "fft" : "sort") + "/" + s.label,
          {{"app", fft ? "fft" : "sort"},
           {"scenario", s.label},
           {"P", "4"},
           {fft ? "n" : "keys",
            fft ? num(kChaosFftN) : num(kChaosSortKeys)}},
          [fft, plan] { return chaos_recovery_metrics(fft, plan); }});
    }
  }
  return points;
}

std::vector<RunPoint> collective_points(bool reduced) {
  struct Grid {
    const char* label;   // "topology" param
    net::TopologyConfig config;
    std::size_t p;
    bool full_only;
  };
  const std::vector<Grid> grid = {
      {"star", net::TopologyConfig::star(), 8, false},
      {"fattree2", net::TopologyConfig::fat_tree(2), 16, false},
      {"torus2", net::TopologyConfig::torus(2), 16, false},
      {"star", net::TopologyConfig::star(), 16, true},
      {"fattree2", net::TopologyConfig::fat_tree(2), 64, true},
      {"fattree3", net::TopologyConfig::fat_tree(3), 16, true},
      {"torus3", net::TopologyConfig::torus(3), 27, true},
  };
  constexpr std::size_t kElements = 256;
  std::vector<RunPoint> points;
  for (const auto& g : grid) {
    if (reduced && g.full_only) continue;
    for (auto backend : {apps::CollectiveBackend::kHost,
                         apps::CollectiveBackend::kNic}) {
      const net::TopologyConfig topo = g.config;
      const std::size_t p = g.p;
      points.push_back(RunPoint{
          "collectives",
          std::string(apps::to_string(backend)) + "/" + g.label +
              "/P=" + num(p),
          {{"collective_backend", apps::to_string(backend)},
           {"topology", g.label},
           {"P", num(p)},
           {"elements", num(kElements)}},
          [backend, topo, p] {
            return collective_metrics(backend, topo, p, kElements);
          }});
    }
  }
  return points;
}

/// The host-cost gate: at every grid point present for both backends,
/// the NIC plane must charge strictly fewer host CPU events and
/// interrupt deliveries than the host plane.
int host_cost_gate(const std::vector<RunRecord>& records) {
  int regressions = 0;
  for (const auto& nic : records) {
    if (!nic.ok || nic.param("collective_backend") != "nic") continue;
    for (const auto& host : records) {
      if (!host.ok || host.param("collective_backend") != "host") continue;
      if (host.param("topology") != nic.param("topology") ||
          host.param("P") != nic.param("P")) {
        continue;
      }
      const bool wins =
          nic.counter("host_cpu_events") < host.counter("host_cpu_events") &&
          nic.counter("irq_delivered") < host.counter("irq_delivered");
      if (!wins) {
        ++regressions;
        std::fprintf(stderr,
                     "HOST-COST REGRESSION %s: nic cpu/irq %lld/%lld vs "
                     "host %lld/%lld\n",
                     nic.name.c_str(),
                     static_cast<long long>(nic.counter("host_cpu_events")),
                     static_cast<long long>(nic.counter("irq_delivered")),
                     static_cast<long long>(host.counter("host_cpu_events")),
                     static_cast<long long>(host.counter("irq_delivered")));
      }
    }
  }
  if (regressions == 0) {
    std::puts("host-cost check passed: the NIC backend beats the host "
              "backend on CPU events and interrupt deliveries everywhere");
  }
  return regressions;
}

std::vector<RunPoint> topology_scaling_points(bool reduced) {
  struct Grid {
    const char* label;   // point-name prefix and "topology" param
    net::TopologyConfig config;
    std::size_t p;
    bool full_only;
  };
  const std::vector<Grid> grid = {
      {"star", net::TopologyConfig::star(), 64, false},
      {"fattree2", net::TopologyConfig::fat_tree(2), 64, false},
      {"fattree2", net::TopologyConfig::fat_tree(2), 256, false},
      {"torus2", net::TopologyConfig::torus(2), 64, false},
      {"torus3", net::TopologyConfig::torus(3), 256, false},
      {"fattree3", net::TopologyConfig::fat_tree(3), 1024, true},
      {"torus3", net::TopologyConfig::torus(3), 1024, true},
  };
  std::vector<RunPoint> points;
  for (const auto& g : grid) {
    if (reduced && g.full_only) continue;
    const net::TopologyConfig topo = g.config;
    const std::size_t p = g.p;
    points.push_back(RunPoint{
        "fig_scaling_topology",
        std::string(g.label) + "/P=" + num(p),
        {{"topology", g.label},
         {"shape", net::describe_topology(topo, p)},
         {"P", num(p)}},
        [topo, p] { return topology_metrics(topo, p); }});
  }
  return points;
}

// ---------------------------------------------------------------------
// Engine-scaling suite: SimCluster device models on per-switch LPs at
// 1/2/4 threads.
// ---------------------------------------------------------------------

sim::Process cluster_scaling_sender(apps::SimCluster& cluster, int src,
                                    int dst, int rounds, Bytes size) {
  for (int r = 0; r < rounds; ++r) {
    co_await cluster.transfer(src, dst, size, static_cast<std::uint64_t>(r));
  }
}

sim::Process cluster_scaling_receiver(apps::SimCluster& cluster, int node,
                                      int rounds) {
  for (int r = 0; r < rounds; ++r) {
    (void)co_await cluster.inbox(static_cast<std::size_t>(node)).recv();
  }
}

/// One SimCluster engine-scaling run: a neighbour-ring INIC transfer
/// workload on a multi-switch cluster with the full device models
/// (cards, DMA, switch FIFOs) sharded across per-switch LPs when
/// threads >= 2.  Digest semantics follow docs/TRACING.md: threads <= 1
/// reports the historical serial digest; any threads >= 2 report one
/// common sharded digest (per-lane frame ids), so floor checks compare
/// wall clock 1-vs-4 but digests only among sharded runs.
struct ClusterScalingRun {
  Time sim_time = Time::zero();
  std::uint64_t digest = 0;
  std::uint64_t trace_records = 0;
  std::uint64_t events = 0;
  std::size_t lp_count = 1;
  std::uint64_t windows = 0;
  std::uint64_t cross_posts = 0;
  std::vector<ShardSummary> shards;  // empty for serial runs
};

ClusterScalingRun run_cluster_scaling_point(const net::TopologyConfig& topo,
                                            std::size_t hosts,
                                            std::size_t threads) {
  apps::ClusterOptions copts;
  copts.topology = topo;
  copts.engine_threads = threads;
  apps::SimCluster cluster(hosts, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), copts);
  cluster.enable_tracing(/*ring_capacity=*/64);
  sim::ProcessGroup group(*cluster.parallel());
  constexpr int kRounds = 4;
  const Bytes kSize = Bytes::kib(64);
  for (std::size_t i = 0; i < hosts; ++i) {
    const int src = static_cast<int>(i);
    const int dst = static_cast<int>((i + 1) % hosts);
    group.spawn_on(cluster.node_lp(i),
                   cluster_scaling_sender(cluster, src, dst, kRounds, kSize));
    group.spawn_on(cluster.node_lp(static_cast<std::size_t>(dst)),
                   cluster_scaling_receiver(cluster, dst, kRounds));
  }
  ClusterScalingRun out;
  out.sim_time = cluster.run();
  group.join();
  out.digest = cluster.digest();
  out.trace_records = cluster.trace_records();
  out.events = cluster.events_executed();
  if (cluster.sharded()) {
    const sim::ParallelEngine* pe = cluster.parallel();
    out.lp_count = pe->lp_count();
    out.windows = pe->windows();
    out.cross_posts = pe->cross_posts();
    out.shards.reserve(pe->shard_stats().size());
    for (const auto& sh : pe->shard_stats()) {
      out.shards.push_back(ShardSummary{sh.events, sh.wall_ns});
    }
  }
  return out;
}

/// One point body: exactly one simulation, so the point's wall clock is
/// that run's.  `speedup` and `scaling_efficiency` are filled after the
/// sweep from the threads=1 sibling (runner::derive_thread_scaling).
RunMetrics cluster_scaling_metrics(const net::TopologyConfig& topo,
                                   std::size_t hosts, std::size_t threads) {
  const ClusterScalingRun r = run_cluster_scaling_point(topo, hosts, threads);
  RunMetrics m;
  m.sim_time = r.sim_time;
  m.digest = r.digest;
  m.trace_records = r.trace_records;
  m.events = r.events;
  m.threads = threads;
  m.shards = r.shards;
  m.counters = {
      {"lp_count", static_cast<std::int64_t>(r.lp_count)},
      {"windows", static_cast<std::int64_t>(r.windows)},
      {"cross_posts", static_cast<std::int64_t>(r.cross_posts)},
  };
  return m;
}

/// The speedup-floor shape: the full grid's 1024-host fat-tree cluster
/// (k = 16: 320 switch LPs).  The floor re-measures exactly this shape,
/// so the gate and the grid cannot drift apart.
constexpr std::size_t kClusterScalingFloorHosts = 1024;

std::vector<RunPoint> engine_scaling_points(bool reduced) {
  struct Grid {
    const char* label;  // the "topology" param
    net::TopologyConfig topo;
    std::size_t hosts;
  };
  // The 64-host 2-level tree (8 edge + 8 spine LPs) runs in both grids.
  // 3-level host counts must be k^3/4 for an even k: 16 reduced, the
  // floor shape full.
  const std::vector<Grid> grid = {
      {"cluster_fattree2", net::TopologyConfig::fat_tree(2), 64},
      {"cluster_fattree3", net::TopologyConfig::fat_tree(3),
       reduced ? std::size_t{16} : kClusterScalingFloorHosts},
  };
  std::vector<RunPoint> points;
  for (const auto& g : grid) {
    const net::TopologyConfig topo = g.topo;
    const std::size_t hosts = g.hosts;
    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}}) {
      points.push_back(RunPoint{
          "engine_scaling",
          std::string(g.label) + "/P=" + num(hosts) +
              "/threads=" + num(threads),
          {{"topology", g.label}, {"P", num(hosts)}, {"threads", num(threads)}},
          [topo, hosts, threads] {
            return cluster_scaling_metrics(topo, hosts, threads);
          }});
    }
  }
  return points;
}

/// One floor attempt: the pinned 1024-host cluster shape at 1 then 4
/// threads.  `sharded_digest` carries the 2-thread reference digest
/// across attempts (serial and sharded digests are different constants
/// by design, so the determinism abort compares 4-thread runs against
/// the 2-thread reference, never against serial).
double cluster_floor_attempt(std::uint64_t sharded_digest) {
  using clock = std::chrono::steady_clock;
  const net::TopologyConfig topo = net::TopologyConfig::fat_tree(3);
  const auto t0 = clock::now();
  const auto serial =
      run_cluster_scaling_point(topo, kClusterScalingFloorHosts, /*threads=*/1);
  const auto t1 = clock::now();
  const auto parallel =
      run_cluster_scaling_point(topo, kClusterScalingFloorHosts, /*threads=*/4);
  const auto t2 = clock::now();
  if (parallel.digest != sharded_digest) {
    std::fprintf(stderr,
                 "CLUSTER FLOOR ABORT: 4-thread digest %s diverged from "
                 "the 2-thread reference %s — determinism bug, not a perf "
                 "issue\n",
                 digest_hex(parallel.digest).c_str(),
                 digest_hex(sharded_digest).c_str());
    return -1.0;
  }
  if (parallel.sim_time != serial.sim_time) {
    std::fprintf(stderr,
                 "CLUSTER FLOOR ABORT: sharded end time diverged from "
                 "serial — equivalence bug, not a perf issue\n");
    return -1.0;
  }
  const double serial_s = std::chrono::duration<double>(t1 - t0).count();
  const double parallel_s = std::chrono::duration<double>(t2 - t1).count();
  if (parallel_s <= 0.0) return 0.0;
  return serial_s / parallel_s;
}

/// The parallel engine's speedup floor: re-measures the pinned 1024-host
/// fat-tree cluster back-to-back at 1 and 4 threads and fails unless the
/// best of three attempts reaches 1.6x.  Determinism is not this gate's
/// job (tests/parallel_scaling_test.cpp compares digests across thread
/// counts); this one keeps the parallelism real, and a digest or end-time
/// divergence aborts it at once.
int engine_scaling_floor() {
  const double kFloor = 1.6;
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores < 4) {
    // A 4-thread speedup floor on a host with fewer than 4 cores is
    // vacuously red: the workers time-slice one another and the best
    // possible "speedup" is ~1.0x.  Skip loudly rather than fail —
    // the determinism half of the contract is still fully checked by
    // tests/parallel_scaling_test.cpp on any core count.
    std::printf("\nfloor check SKIPPED: host reports %u core(s); the "
                ">= %.1fx @ 4 threads gate needs >= 4\n",
                cores, kFloor);
    return 0;
  }
  std::printf("\n== SimCluster speedup floor: fat_tree(3) %zu hosts, "
              "4 threads, >= %.1fx ==\n",
              kClusterScalingFloorHosts, kFloor);
  // 2-thread reference digest for the cross-thread determinism abort
  // (the serial digest is a different constant by design).
  const auto two =
      run_cluster_scaling_point(net::TopologyConfig::fat_tree(3),
                                kClusterScalingFloorHosts, /*threads=*/2);
  double best = 0.0;
  for (int attempt = 1; attempt <= 3; ++attempt) {
    const double s = cluster_floor_attempt(two.digest);
    if (s < 0.0) return 1;  // determinism divergence
    std::printf("attempt %d: %.2fx\n", attempt, s);
    if (s > best) best = s;
    if (best >= kFloor) break;  // no need to burn more CI time
  }
  if (best >= kFloor) {
    std::printf("cluster floor passed: best %.2fx >= %.1fx\n", best, kFloor);
    return 0;
  }
  std::fprintf(stderr,
               "CLUSTER FLOOR FAILED: best speedup %.2fx < %.1fx at "
               "4 threads\n",
               best, kFloor);
  return 1;
}

}  // namespace

const std::vector<Suite>& suites() {
  static const std::vector<Suite> table = {
      {.name = "fig8a_fft_sim", .points = fig8a_points},
      {.name = "fig8b_sort_sim", .points = fig8b_points},
      {.name = "fig4b_transpose",
       .points = fig4b_points,
       .columns = {{"NIC comm (ms)", "nic_comm_ns", 1e-6, 2},
                   {"NIC compute (ms)", "nic_compute_ns", 1e-6, 2},
                   {"INIC trans (ms)", "inic_transpose_ns", 1e-6, 2},
                   {"partition (KB)", "partition_bytes", 1.0 / 1024, 1}}},
      {.name = "fig5a_sort_components",
       .points = fig5a_points,
       .columns = {{"count sort (ms)", "count_sort_ns", 1e-6, 1},
                   {"phase1 bucket (ms)", "bucket_phase1_ns", 1e-6, 1},
                   {"phase2 bucket (ms)", "bucket_phase2_ns", 1e-6, 1},
                   {"comm (ms)", "comm_ns", 1e-6, 1},
                   {"partition (KB)", "partition_bytes", 1.0 / 1024, 1}}},
      {.name = "ablation_packet_size",
       .points = packet_size_points,
       .columns = {{"redistribution (ms)", "redistribution_ns", 1e-6, 1}}},
      {.name = "ablation_dma_threshold",
       .points = dma_threshold_points,
       .columns = {{"DMA efficiency", "dma_efficiency_ppm", 1e-6, 3},
                   {"N x thr delay (ms)", "accumulation_delay_ns", 1e-6, 1}}},
      // Collectives over multi-hop fabrics (P up to 1024 in the full
      // grid; reduced keeps P <= 256 so CI and the TSan sweep stay fast).
      {.name = "fig_scaling_topology",
       .points = topology_scaling_points,
       .columns = {{"switches", "switches"},
                   {"links", "interior_links"},
                   {"link frames", "link_frames_total"},
                   {"max/link", "link_frames_max"},
                   {"peak queue (B)", "link_peak_queue_max_bytes"},
                   {"drops", "frames_dropped"}}},
      // Host/TCP vs NIC-resident backend over the fabric grid.
      {.name = "collectives",
       .points = collective_points,
       .columns = {{"barrier (us)", "barrier_ns", 1e-3, 1},
                   {"allreduce (us)", "allreduce_ns", 1e-3, 1},
                   {"cpu events", "host_cpu_events"},
                   {"irq events", "irq_events"},
                   {"irqs", "irq_delivered"},
                   {"host cpu (us)", "host_cpu_ns", 1e-3, 1},
                   {"trig fires", "trigger_fires"}},
       .gate = host_cost_gate},
      // Permanent link cuts with adaptive routing: recovery latency and
      // post-failover goodput per backend.
      {.name = "failover_recovery",
       .points = failover_points,
       .columns = {{"clean (ms)", "clean_ns", 1e-6, 3},
                   {"faulted (ms)", "faulted_ns", 1e-6, 3},
                   {"recovery (us)", "recovery_latency_ns", 1e-3, 1},
                   {"goodput (MB/s)", "goodput_bytes_per_s", 1e-6, 1},
                   {"epochs", "route_epochs"},
                   {"grants", "reroute_grants"}},
       .gate = recovery_gate},
      // Scripted fault storms against verified FFT/sort runs.
      {.name = "chaos_recovery",
       .points = chaos_recovery_points,
       .columns = {{"clean (ms)", "clean_ns", 1e-6, 3},
                   {"faulted (ms)", "faulted_ns", 1e-6, 3},
                   {"fallback", "fallback_transfers"},
                   {"retransmits", "retransmits"},
                   {"crc drops", "crc_drops"}}},
      // Open-loop KV tail latency, host vs NIC plane, clean vs 30% loss.
      {.name = "serving_tail",
       .points = serving_points,
       .columns = {{"responses", "responses"},
                   {"p50 (us)", "p50_ns", 1e-3, 1},
                   {"p99 (us)", "p99_ns", 1e-3, 1},
                   {"p999 (us)", "p999_ns", 1e-3, 1},
                   {"goodput (MB/s)", "goodput_bytes_per_sec", 1e-6, 2},
                   {"net drops", "net_drops"}},
       .gate = tail_gate},
      // Parallel engine at 1/2/4 worker threads: digest thread-count
      // independence plus the scaling trajectory.  Each point owns a
      // worker pool, so running points beside each other would corrupt
      // every wall-clock ratio the suite exists to measure.
      {.name = "engine_scaling",
       .points = engine_scaling_points,
       .columns = {{"LPs", "lp_count"},
                   {"windows", "windows"},
                   {"cross posts", "cross_posts"}},
       .floor = engine_scaling_floor,
       .serial = true},
  };
  return table;
}

}  // namespace acc::runner
