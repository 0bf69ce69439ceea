// Extension bench: MPI derived datatypes — host pack+send vs INIC
// in-stream gather (Section 8's "MPI derived data types").
//
// Workload: send one column-block of a row-major matrix (the exact
// gather the FFT transpose performs).  Host path: pack the strided
// layout on the CPU (strided pass + per-block overhead), then send the
// contiguous buffer over TCP.  INIC path: the card's address generator
// gathers the blocks during the host->card DMA — no host compute at all.
#include <cstdio>

#include "common/table.hpp"
#include "core/acc.hpp"
#include "dtype/datatype.hpp"

using namespace acc;

namespace {

Time run_host_pack_send(const dtype::Datatype& type) {
  apps::SimCluster cluster(2, apps::Interconnect::kGigabitTcp);
  sim::ProcessGroup group(*cluster.parallel());
  group.spawn([](apps::SimCluster& c, const dtype::Datatype& t) -> sim::Process {
    co_await c.node(0).cpu().compute(
        dtype::host_pack_time(c.node(0).cpu().memory(), t));
    co_await c.tcp(0).send_message(1, t.packed_size(), 0, std::any{});
  }(cluster, type));
  group.spawn([](apps::SimCluster& c) -> sim::Process {
    (void)co_await c.tcp(1).inbox().recv();
  }(cluster));
  return group.join();
}

Time run_inic_gather_send(const dtype::Datatype& type) {
  apps::SimCluster cluster(2, apps::Interconnect::kInicIdeal);
  sim::ProcessGroup group(*cluster.parallel());
  group.spawn([](apps::SimCluster& c, const dtype::Datatype& t) -> sim::Process {
    // The gather happens in the card's datapath during the stream.
    co_await c.card(0).send_stream(1, t.packed_size(), 0, std::any{});
  }(cluster, type));
  group.spawn([](apps::SimCluster& c) -> sim::Process {
    (void)co_await c.card(1).card_inbox().recv();
  }(cluster));
  return group.join();
}

}  // namespace

int main() {
  print_banner(
      "Extension: derived-datatype send — host pack+TCP vs INIC in-stream "
      "gather");

  // Column blocks of an n x n complex-double matrix: n blocks of
  // width*16 bytes, stride n*16 (width = n/8 columns).
  Table table({"matrix", "payload", "blocks", "host pack (ms)",
               "host total (ms)", "INIC total (ms)", "INIC win"});
  for (std::size_t n : {128u, 256u, 512u, 1024u}) {
    const std::size_t width = n / 8;
    const auto type = dtype::Datatype::vector(n, width * 16, n * 16);
    hw::MemoryHierarchy mem;
    const Time pack = dtype::host_pack_time(mem, type);
    const Time host = run_host_pack_send(type);
    const Time inic = run_inic_gather_send(type);
    table.row()
        .add(std::to_string(n) + "x" + std::to_string(n))
        .add(to_string(type.packed_size()))
        .add(static_cast<std::int64_t>(type.block_count()))
        .add(pack.as_millis(), 2)
        .add(host.as_millis(), 2)
        .add(inic.as_millis(), 2)
        .add(host / inic, 2);
  }
  table.print();

  std::puts(
      "\nExpected: the host pays a strided pack pass that grows with the"
      "\nmatrix (and falls off the cache); the INIC gathers in-stream, so"
      "\nits cost is pure transfer time.");
  return 0;
}
