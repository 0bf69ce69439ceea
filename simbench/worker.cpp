// simbench_worker: one benchmark process = one (workload, mode, seed).
//
// Builds the workload's SimCluster(s) through the public API, runs them,
// verifies every output, and prints one JSON object on stdout:
//
//   simbench_worker --workload ring1024 --mode serial --seed 7 [--traced]
//
// Modes: serial (engine_threads = 1, tracing off), sharded
// (engine_threads = 4, tracing off) and digest (serial with
// enable_tracing(64), how determinism checks run).  run.py starts a fresh
// process per mode, so no mode inherits another's heap or thread pool.
//
// --traced (serial mode only) records the benchmark's own spans around
// each public call (constructor, spawn, run, join, counters_snapshot,
// fft2d_inplace) into a pre-sized in-memory buffer, counts global
// operator new calls during the timed window, and times a standalone
// algo::fft2d_inplace.  Spans are written out at exit, as part of the
// JSON object.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/fft.hpp"
#include "algo/matrix.hpp"
#include "apps/cluster.hpp"
#include "apps/fft_app.hpp"
#include "apps/kv_app.hpp"
#include "collectives/collectives.hpp"
#include "common/rng.hpp"
#include "sim/process.hpp"

// ---------------------------------------------------------------------
// Allocation counting: every global operator new in this binary goes
// through here.  Counting is switched on only for the timed window of a
// traced (serial) run, so every other run pays one relaxed load.
// ---------------------------------------------------------------------
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = ((n == 0 ? 1 : n) + a - 1) / a * a;
  return std::aligned_alloc(a, rounded);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace acc;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------
// Span recorder: pre-sized, in memory, flushed at exit.
// ---------------------------------------------------------------------
struct Span {
  const char* name;
  double start_s;
  double dur_s;
};

class Spans {
 public:
  explicit Spans(bool on) : on_(on), epoch_(Clock::now()) {
    if (on_) spans_.reserve(64);
  }

  /// Runs `fn`, recording its duration under `name` when tracing.
  template <typename Fn>
  decltype(auto) time(const char* name, Fn&& fn) {
    if (!on_) return fn();
    const auto t0 = Clock::now();
    struct Record {
      Spans* self;
      const char* name;
      Clock::time_point t0;
      ~Record() {
        const auto t1 = Clock::now();
        self->spans_.push_back(
            {name, std::chrono::duration<double>(t0 - self->epoch_).count(),
             std::chrono::duration<double>(t1 - t0).count()});
      }
    } rec{this, name, t0};
    return fn();
  }

  const std::vector<Span>& all() const { return spans_; }

 private:
  bool on_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

enum class Mode { kSerial, kSharded, kDigest };

struct Args {
  std::string workload;
  Mode mode = Mode::kSerial;
  std::uint64_t seed = 0;
  bool traced = false;
};

/// What one mode process measured and checked.
struct Result {
  double setup_s = 0;  // SimCluster construction + process spawn
  double wall_s = 0;   // run + join + verification
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Simulated outputs (compared against pins and across modes).
  std::map<std::string, std::int64_t> outputs;
  // Counter totals summed over nodes (and clusters), keyed by name.
  std::map<std::string, std::uint64_t> counters;
  std::uint64_t events = 0;
  std::uint64_t trace_records = 0;
  std::vector<std::uint64_t> digests;
  // Parallel-engine telemetry (sharded mode on a shardable fabric).
  std::size_t lps = 1;
  std::size_t threads = 1;
  std::uint64_t windows = 0;
  std::uint64_t cross_posts = 0;
  double busy_sum_s = 0;
  double busy_max_s = 0;
  std::uint64_t allocs = 0;
  double fft2d_s = 0;
};

constexpr std::size_t kShardedThreads = 4;

/// Constructs a cluster for the run's mode; digest mode turns tracing on
/// before anything is spawned.
std::unique_ptr<apps::SimCluster> build_cluster(std::size_t n,
                                                apps::Interconnect ic,
                                                apps::ClusterOptions opts,
                                                const Args& args,
                                                Spans& spans) {
  opts.engine_threads = args.mode == Mode::kSharded ? kShardedThreads : 1;
  auto cluster = spans.time("ctor", [&] {
    return std::make_unique<apps::SimCluster>(
        n, ic, model::default_calibration(), opts);
  });
  if (args.mode == Mode::kDigest) cluster->enable_tracing(64);
  return cluster;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  Rng rng(seed ^ (a * 0x9E3779B97F4A7C15ULL) ^ (b << 32) ^ b);
  return rng();
}

/// Runs one cluster's timed window: `run_body` (run, join and
/// verification, all counted as wall time) with allocation counting on
/// when traced, then folds the cluster's telemetry into `out`.
template <typename Body>
void timed_run(apps::SimCluster& cluster, const Args& args, Spans& spans,
               Result& out, Body&& run_body) {
  if (args.traced) g_count_allocs.store(true, std::memory_order_relaxed);
  const auto t0 = Clock::now();
  run_body();
  out.wall_s += seconds_since(t0);
  if (args.traced) g_count_allocs.store(false, std::memory_order_relaxed);

  const auto samples = spans.time("counters_snapshot",
                                  [&] { return cluster.counters_snapshot(); });
  for (const auto& s : samples) out.counters[s.name] += s.value;
  out.events += cluster.events_executed();
  out.trace_records += cluster.trace_records();
  out.digests.push_back(cluster.digest());
  if (const net::LpPartition* part = cluster.partition()) {
    out.lps = std::max(out.lps, part->lp_count);
  }
  if (sim::ParallelEngine* pe = cluster.parallel()) {
    out.threads = pe->threads();
    out.windows += pe->windows();
    out.cross_posts += pe->cross_posts();
    double max_s = 0;
    for (const auto& sh : pe->shard_stats()) {
      const double s = static_cast<double>(sh.wall_ns) / 1e9;
      out.busy_sum_s += s;
      max_s = std::max(max_s, s);
    }
    out.busy_max_s += max_s;
  }
}

// --- ring1024 ---------------------------------------------------------

constexpr std::size_t kRingHosts = 1024;
constexpr int kRingRounds = 4;

sim::Process ring_sender(apps::SimCluster& cluster, int src, int dst,
                         std::uint64_t seed) {
  for (int r = 0; r < kRingRounds; ++r) {
    co_await cluster.transfer(src, dst, Bytes::kib(64),
                              static_cast<std::uint64_t>(r),
                              mix(seed, static_cast<std::uint64_t>(src),
                                  static_cast<std::uint64_t>(r)));
  }
}

sim::Process ring_receiver(apps::SimCluster& cluster, int node, int src,
                           std::uint64_t seed, std::uint64_t& good) {
  for (int r = 0; r < kRingRounds; ++r) {
    proto::Message m =
        co_await cluster.inbox(static_cast<std::size_t>(node)).recv();
    const auto* token = std::any_cast<std::uint64_t>(&m.payload);
    if (m.src == src && token != nullptr &&
        *token == mix(seed, static_cast<std::uint64_t>(src), m.tag)) {
      ++good;
    }
  }
}

Result run_ring(const Args& args, Spans& spans) {
  Result out;
  apps::ClusterOptions opts;
  opts.topology = net::TopologyConfig::fat_tree(3);
  const auto t0 = Clock::now();
  auto owned = build_cluster(kRingHosts, apps::Interconnect::kInicIdeal, opts,
                             args, spans);
  apps::SimCluster& cluster = *owned;
  sim::ProcessGroup group = cluster.parallel()
                                ? sim::ProcessGroup(*cluster.parallel())
                                : sim::ProcessGroup(cluster.engine());
  // One verified-delivery tally per receiver: each is written only by
  // the LP owning that node.
  std::vector<std::uint64_t> good(kRingHosts, 0);
  spans.time("spawn", [&] {
    for (std::size_t i = 0; i < kRingHosts; ++i) {
      const int src = static_cast<int>(i);
      const int dst = static_cast<int>((i + 1) % kRingHosts);
      group.spawn_on(cluster.node_lp(i),
                     ring_sender(cluster, src, dst, args.seed));
      group.spawn_on(cluster.node_lp(static_cast<std::size_t>(dst)),
                     ring_receiver(cluster, dst, src, args.seed,
                                   good[static_cast<std::size_t>(dst)]));
    }
  });
  out.setup_s = seconds_since(t0);

  timed_run(cluster, args, spans, out, [&] {
    const Time end = spans.time("run", [&] { return cluster.run(); });
    spans.time("join", [&] { group.join(); });
    std::uint64_t delivered = 0;
    for (std::uint64_t g : good) delivered += g;
    out.attempted = kRingHosts * kRingRounds;
    out.failed = out.attempted - delivered;
    out.outputs["end_ns"] = end.as_nanos();
  });
  return out;
}

// --- collectives1024 --------------------------------------------------

constexpr std::size_t kCollElements = 4096;
// Back-to-back allreduces on one cluster: one takes about 0.4 s serial,
// too short a timed window to time steadily.
constexpr std::uint64_t kCollRepeats = 3;

Result run_collectives(const Args& args, Spans& spans) {
  Result out;
  apps::ClusterOptions opts;
  opts.topology = net::TopologyConfig::fat_tree(3);
  opts.collective_backend = apps::CollectiveBackend::kNic;
  const auto t0 = Clock::now();
  auto owned = build_cluster(kRingHosts, apps::Interconnect::kInicIdeal, opts,
                             args, spans);
  apps::SimCluster& cluster = *owned;
  out.setup_s = seconds_since(t0);

  timed_run(cluster, args, spans, out, [&] {
    for (std::uint64_t rep = 0; rep < kCollRepeats; ++rep) {
      // Rank l of repeat `rep` contributes the vector seeded
      // seed + rep * hosts + l, so no two repeats sum the same data.
      const coll::CollectiveResult res = spans.time("run", [&] {
        return coll::topology_allreduce(cluster, kCollElements,
                                        args.seed + rep * kRingHosts);
      });
      ++out.attempted;
      if (!res.verified || res.data.size() != kRingHosts) ++out.failed;
      // join() time: when the repeat's last rank finished.
      out.outputs["allreduce" + std::to_string(rep) + "_end_ns"] =
          res.total.as_nanos();
    }
  });
  return out;
}

// --- serving64 --------------------------------------------------------

constexpr std::size_t kServingHosts = 64;

Result run_serving(const Args& args, Spans& spans) {
  Result out;
  apps::ClusterOptions opts;
  opts.topology = net::TopologyConfig::fat_tree(2);
  const auto t0 = Clock::now();
  auto owned = build_cluster(kServingHosts, apps::Interconnect::kGigabitTcp,
                             opts, args, spans);
  apps::SimCluster& cluster = *owned;
  out.setup_s = seconds_since(t0);

  apps::KvRunOptions kv;
  kv.clients = kServingHosts / 2;
  kv.servers = kServingHosts / 2;
  kv.requests_per_client = 700;
  kv.rate_hz = 20000.0;
  kv.arrivals = apps::ArrivalProcess::kPoisson;
  kv.zipf_theta = 0.99;
  kv.seed = args.seed;
  kv.verify = true;
  timed_run(cluster, args, spans, out, [&] {
    const apps::KvRunResult r =
        spans.time("run", [&] { return apps::run_kv_serving(cluster, kv); });
    out.attempted = kv.clients * kv.requests_per_client;
    const std::uint64_t delivered =
        r.verified ? std::min<std::uint64_t>(r.responses, out.attempted) : 0;
    out.failed = out.attempted - delivered;
    out.outputs["end_ns"] = r.total.as_nanos();
    out.outputs["p50_ns"] = r.p50.as_nanos();
    out.outputs["p99_ns"] = r.p99.as_nanos();
  });
  return out;
}

// --- fft_transpose ----------------------------------------------------

constexpr std::size_t kFftNodes = 16;
constexpr std::size_t kFftN = 2048;

Result run_fft(const Args& args, Spans& spans) {
  Result out;
  const std::pair<apps::Interconnect, const char*> planes[] = {
      {apps::Interconnect::kGigabitTcp, "gige_total_ns"},
      {apps::Interconnect::kInicIdeal, "inic_total_ns"},
  };
  for (const auto& [ic, key] : planes) {
    const auto t0 = Clock::now();
    auto owned = build_cluster(kFftNodes, ic, {}, args, spans);
    apps::SimCluster& cluster = *owned;
    out.setup_s += seconds_since(t0);
    timed_run(cluster, args, spans, out, [&] {
      apps::FftRunOptions fo;
      fo.verify = true;
      fo.seed = args.seed;
      const apps::FftRunResult r = spans.time(
          "run", [&] { return apps::run_parallel_fft(cluster, kFftN, fo); });
      ++out.attempted;
      if (!r.verified) ++out.failed;
      out.outputs[key] = r.total.as_nanos();
    });
  }
  return out;
}

/// Standalone algo-layer probe: one 2D FFT of a seeded n x n matrix.
double time_fft2d(std::uint64_t seed, Spans& spans) {
  algo::Matrix<algo::Complex> m(kFftN, kFftN);
  Rng rng(seed);
  for (std::size_t r = 0; r < kFftN; ++r) {
    for (std::size_t c = 0; c < kFftN; ++c) {
      m.at(r, c) = algo::Complex(rng.uniform01(), rng.uniform01());
    }
  }
  const auto t0 = Clock::now();
  spans.time("fft2d_inplace", [&] { algo::fft2d_inplace(m); });
  return seconds_since(t0);
}

// --- output -----------------------------------------------------------

void print_json(const Result& r, const Spans& spans) {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  std::printf("{\"setup_s\": %.9f, \"wall_s\": %.9f", r.setup_s, r.wall_s);
  std::printf(", \"attempted\": %llu, \"failed\": %llu",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  std::printf(", \"events\": %llu, \"trace_records\": %llu",
              static_cast<unsigned long long>(r.events),
              static_cast<unsigned long long>(r.trace_records));
  std::printf(", \"lps\": %zu, \"windows\": %llu, \"cross_posts\": %llu",
              r.lps, static_cast<unsigned long long>(r.windows),
              static_cast<unsigned long long>(r.cross_posts));
  std::printf(", \"threads\": %zu", r.threads);
  std::printf(", \"busy_sum_s\": %.9f, \"busy_max_s\": %.9f", r.busy_sum_s,
              r.busy_max_s);
  std::printf(", \"allocs\": %llu, \"fft2d_s\": %.9f",
              static_cast<unsigned long long>(r.allocs), r.fft2d_s);
  std::printf(", \"rss_kb\": %ld", ru.ru_maxrss);
  std::printf(", \"digests\": [");
  for (std::size_t i = 0; i < r.digests.size(); ++i) {
    std::printf("%s\"0x%016llx\"", i ? ", " : "",
                static_cast<unsigned long long>(r.digests[i]));
  }
  std::printf("], \"outputs\": {");
  const char* sep = "";
  for (const auto& [k, v] : r.outputs) {
    std::printf("%s\"%s\": %lld", sep, k.c_str(), static_cast<long long>(v));
    sep = ", ";
  }
  std::printf("}, \"counters\": {");
  sep = "";
  for (const auto& [k, v] : r.counters) {
    std::printf("%s\"%s\": %llu", sep, k.c_str(),
                static_cast<unsigned long long>(v));
    sep = ", ";
  }
  std::printf("}, \"spans\": [");
  sep = "";
  for (const Span& s : spans.all()) {
    std::printf("%s[\"%s\", %.9f, %.9f]", sep, s.name, s.start_s, s.dur_s);
    sep = ", ";
  }
  std::printf("]}\n");
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--mode") {
      const std::string m = value();
      if (m == "serial") {
        a.mode = Mode::kSerial;
      } else if (m == "sharded") {
        a.mode = Mode::kSharded;
      } else if (m == "digest") {
        a.mode = Mode::kDigest;
      } else {
        throw std::invalid_argument("unknown mode " + m);
      }
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--traced") {
      a.traced = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    if (args.traced && args.mode != Mode::kSerial) {
      throw std::invalid_argument("--traced is for the serial mode only");
    }
    Spans spans(args.traced);
    Result r;
    if (args.workload == "ring1024") {
      r = run_ring(args, spans);
    } else if (args.workload == "collectives1024") {
      r = run_collectives(args, spans);
    } else if (args.workload == "serving64") {
      r = run_serving(args, spans);
    } else if (args.workload == "fft_transpose") {
      r = run_fft(args, spans);
    } else {
      throw std::invalid_argument("unknown workload " + args.workload);
    }
    r.allocs = g_allocs.load();
    if (args.traced) r.fft2d_s = time_fft2d(args.seed, spans);
    print_json(r, spans);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simbench_worker: %s\n", e.what());
    return 1;
  }
}
