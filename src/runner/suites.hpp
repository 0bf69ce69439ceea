// The benchmark suite registry: every simulated figure, ablation and
// system sweep from EXPERIMENTS.md as one named entry that builds its
// runner::RunPoints, names its extra table columns and checks its own
// acceptance gate.  bench/bench_all is the one binary over this table:
// it runs the selected suites' points through the SweepRunner, emits
// BENCH_results.json, and then runs every selected suite's gate.
//
// Each point runs a fresh SimCluster with tracing enabled (small ring;
// the digest covers the full stream), so every point carries the run
// digest that CI compares between pooled and serial execution.  Serial
// speedup baselines come from core::serial_*_total, which memoizes one
// serial run per problem size process-wide (thread-safe);
// engine_scaling speedups come from runner::derive_thread_scaling.
#pragma once

#include <vector>

#include "runner/sweep.hpp"

namespace acc::runner {

/// An extra column of a suite's table: counter `counter` times `scale`,
/// printed with `decimals` places (0 prints the raw integer).
struct Column {
  const char* header = "";
  const char* counter = "";
  double scale = 1.0;
  int decimals = 0;
};

struct Suite {
  const char* name = "";
  /// The full grid (`reduced` = false: the exact grid EXPERIMENTS.md
  /// plots) or the CI-sized grid that runs every suite in seconds.
  std::vector<RunPoint> (*points)(bool reduced) = nullptr;
  std::vector<Column> columns{};
  /// Acceptance gate over this suite's records (nullptr: none).  Prints
  /// each violation to stderr, or a pass line to stdout, and returns the
  /// violation count.  Failed records are skipped; the sweep already
  /// fails on them.
  int (*gate)(const std::vector<RunRecord>& records) = nullptr;
  /// Opt-in wall-clock gate (bench_all --check-floor) that re-measures
  /// rather than reading records; same contract as `gate`.
  int (*floor)() = nullptr;
  /// The points time wall-clock speedups, so they run one at a time on
  /// one sweep thread, never beside other points.
  bool serial = false;
};

/// Every suite, in sweep submission order.  Names are unique and equal
/// the `suite` field of every point the entry builds.
const std::vector<Suite>& suites();

}  // namespace acc::runner
