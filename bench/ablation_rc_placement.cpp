// Ablation: where to put the reconfigurable computing (Section 7).
//
// "Relatively low PCI bus speeds have always hindered RC and this
// problem is further complicated when the PCI bus is shared with cluster
// network traffic.  Avoiding this by integrating the RC with the NIC is
// an important innovation."
//
// Scenario: every byte of a stream must be (a) transformed by a kernel
// and (b) transmitted to another node.  Three placements:
//
//   host CPU + NIC     data crosses PCI once (to the NIC); the kernel
//                      runs on the host at memory-hierarchy speed;
//   PCI RC card + NIC  (Tower-of-Power style) data crosses the shared
//                      PCI bus three times: host->RC, RC->host,
//                      host->NIC — the kernel is fast but the bus isn't;
//   INIC               data crosses PCI once and is transformed in the
//                      network datapath at stream rate, for free.
//
// Simulated end-to-end with the same network and node models as the
// figure benches.
#include <cstdio>

#include "common/table.hpp"
#include "core/acc.hpp"

using namespace acc;

namespace {

/// Host-kernel cost per byte: a memory-bound transform (one pass in, one
/// pass out of the hierarchy at DRAM bandwidth for large streams).
Time host_kernel_time(apps::SimCluster& cluster, Bytes size) {
  return cluster.node(0).cpu().memory().pass_time(size, size) * 2.0;
}

/// Sends `size` transformed bytes node 0 -> node 1 with the kernel at
/// the given placement; returns end-to-end completion time.
Time run_case(int placement, Bytes size) {
  // Placements: 0 = host kernel, 1 = PCI RC card, 2 = INIC.
  const bool inic = placement == 2;
  apps::SimCluster cluster(2,
                           inic ? apps::Interconnect::kInicIdeal
                                : apps::Interconnect::kGigabitTcp);

  sim::ProcessGroup group(*cluster.parallel());
  if (inic) {
    group.spawn([](apps::SimCluster& c, Bytes sz) -> sim::Process {
      // Transform rides the stream: just send.
      co_await c.card(0).send_stream(1, sz, 0, std::any{});
    }(cluster, size));
    group.spawn([](apps::SimCluster& c) -> sim::Process {
      (void)co_await c.card(1).card_inbox().recv();
    }(cluster));
  } else {
    group.spawn([placement](apps::SimCluster& c, Bytes sz) -> sim::Process {
      if (placement == 0) {
        // Kernel on the host CPU.
        co_await c.node(0).cpu().compute(host_kernel_time(c, sz));
      } else {
        // Kernel on a PCI RC card: the data makes two extra crossings of
        // the same shared PCI bus the NIC uses (host->RC, RC->host); the
        // FPGA itself keeps up with the bus.
        co_await c.node(0).dma().transfer(sz);  // host -> RC
        co_await c.node(0).dma().transfer(sz);  // RC -> host
      }
      co_await c.tcp(0).send_message(1, sz, 0, std::any{});
    }(cluster, size));
    group.spawn([](apps::SimCluster& c) -> sim::Process {
      (void)co_await c.tcp(1).inbox().recv();
    }(cluster));
  }
  return group.join();
}

}  // namespace

int main() {
  print_banner(
      "Ablation: RC placement — host kernel vs PCI RC card vs INIC "
      "(transform + transmit)");

  Table table({"stream", "host CPU (ms)", "PCI RC card (ms)", "INIC (ms)",
               "INIC win vs PCI RC"});
  for (std::uint64_t mib : {1ull, 4ull, 16ull}) {
    const Bytes size = Bytes::mib(mib);
    const Time host = run_case(0, size);
    const Time pci_rc = run_case(1, size);
    const Time inic = run_case(2, size);
    table.row()
        .add(to_string(size))
        .add(host.as_millis(), 1)
        .add(pci_rc.as_millis(), 1)
        .add(inic.as_millis(), 1)
        .add(pci_rc / inic, 2);
  }
  table.print();

  std::puts(
      "\nExpected (paper, Section 7): the PCI-attached RC card is hobbled"
      "\nby the shared bus (3 crossings per byte); the INIC transforms in"
      "\nthe datapath and beats both alternatives.");
  return 0;
}
