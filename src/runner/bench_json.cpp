#include "runner/bench_json.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>

namespace acc::runner {

namespace {

/// JSON string escaping for the characters our suite/point/param names
/// can legally contain (quotes, backslashes, control characters).
std::string escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string number(double v) {
  // JSON has no inf/nan literals; a bare snprintf would emit them and
  // corrupt the document for strict parsers.  null is the standard
  // "unrepresentable" marker and keeps the field present.
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

void write_point(std::ostream& os, const RunRecord& r,
                 const std::string& indent) {
  os << indent << "\"" << escaped(r.name) << "\": {\n";
  os << indent << "  \"params\": {";
  for (std::size_t i = 0; i < r.params.size(); ++i) {
    if (i) os << ", ";
    os << "\"" << escaped(r.params[i].first) << "\": \""
       << escaped(r.params[i].second) << "\"";
  }
  os << "},\n";
  if (!r.ok) {
    os << indent << "  \"error\": \"" << escaped(r.error) << "\",\n";
    os << indent << "  \"wall_ms\": " << number(r.wall_ms) << ",\n";
    os << indent << "  \"wall_ns\": " << r.wall_ns << "\n";
    os << indent << "}";
    return;
  }
  os << indent << "  \"sim_ms\": " << number(r.metrics.sim_time.as_millis())
     << ",\n";
  if (r.metrics.speedup != 0.0) {
    os << indent << "  \"speedup\": " << number(r.metrics.speedup) << ",\n";
  }
  os << indent << "  \"digest\": \"" << digest_hex(r.metrics.digest)
     << "\",\n";
  os << indent << "  \"trace_records\": " << r.metrics.trace_records << ",\n";
  os << indent << "  \"wall_ms\": " << number(r.wall_ms) << ",\n";
  os << indent << "  \"wall_ns\": " << r.wall_ns << ",\n";
  os << indent << "  \"events\": " << r.metrics.events << ",\n";
  os << indent << "  \"events_per_sec\": " << number(r.events_per_sec());
  // Parallel-engine fields (v4 threads and efficiency, v5 shards),
  // emitted only for points that ran on the window scheduler.
  if (r.metrics.threads > 1) {
    os << ",\n" << indent << "  \"threads\": " << r.metrics.threads;
  }
  if (r.metrics.scaling_efficiency != 0.0) {
    os << ",\n"
       << indent
       << "  \"scaling_efficiency\": " << number(r.metrics.scaling_efficiency);
  }
  if (!r.metrics.shards.empty()) {
    os << ",\n" << indent << "  \"shards\": [";
    for (std::size_t i = 0; i < r.metrics.shards.size(); ++i) {
      if (i) os << ", ";
      os << "{\"events\": " << r.metrics.shards[i].events
         << ", \"wall_ns\": " << r.metrics.shards[i].wall_ns << "}";
    }
    os << "]";
  }
  if (r.metrics.latency.present) {
    const LatencySummary& l = r.metrics.latency;
    os << ",\n" << indent << "  \"latency\": {";
    os << "\"count\": " << l.count;
    os << ", \"p50_ns\": " << l.p50_ns;
    os << ", \"p99_ns\": " << l.p99_ns;
    os << ", \"p999_ns\": " << l.p999_ns;
    os << ", \"mean_ns\": " << l.mean_ns;
    os << ", \"max_ns\": " << l.max_ns;
    os << ", \"goodput_bytes_per_sec\": " << l.goodput_bytes_per_sec;
    os << "}";
  }
  if (!r.metrics.counters.empty()) {
    os << ",\n" << indent << "  \"counters\": {";
    for (std::size_t i = 0; i < r.metrics.counters.size(); ++i) {
      if (i) os << ", ";
      os << "\"" << escaped(r.metrics.counters[i].first)
         << "\": " << r.metrics.counters[i].second;
    }
    os << "}";
  }
  os << "\n" << indent << "}";
}

}  // namespace

std::string digest_hex(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

void write_bench_json(std::ostream& os, const std::vector<RunRecord>& results,
                      const BenchJsonMeta& meta) {
  os << "{\n";
  os << "  \"schema\": \"acc-bench-results/v6\",\n";
  os << "  \"point_set\": \"" << escaped(meta.point_set) << "\",\n";
  os << "  \"threads\": " << meta.threads << ",\n";
  os << "  \"sweep_wall_ms\": " << number(meta.sweep_wall_ms) << ",\n";
  os << "  \"suites\": {\n";
  // Group by suite, preserving submission order of both suites and
  // points (results are already in submission order).
  std::vector<std::string> suite_order;
  for (const auto& r : results) {
    bool seen = false;
    for (const auto& s : suite_order) seen = seen || s == r.suite;
    if (!seen) suite_order.push_back(r.suite);
  }
  for (std::size_t si = 0; si < suite_order.size(); ++si) {
    const std::string& suite = suite_order[si];
    os << "    \"" << escaped(suite) << "\": {\n";
    os << "      \"points\": {\n";
    bool first = true;
    for (const auto& r : results) {
      if (r.suite != suite) continue;
      if (!first) os << ",\n";
      first = false;
      write_point(os, r, "        ");
    }
    os << "\n      }\n";
    os << "    }" << (si + 1 < suite_order.size() ? "," : "") << "\n";
  }
  os << "  }\n";
  os << "}\n";
}

}  // namespace acc::runner
