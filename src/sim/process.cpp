#include "sim/process.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/parallel.hpp"

namespace acc::sim {

ProcessGroup::ProcessGroup(ParallelEngine& pe) : eng_(pe.lp(0)), pe_(&pe) {}

void ProcessGroup::spawn_impl(Engine& on, Process p, std::string name) {
  processes_.push_back(std::make_unique<Process>(std::move(p)));
  names_.push_back(std::move(name));
  finishes_.push_back(std::make_unique<Time>(Time::zero()));
  Process& proc = *processes_.back();
  Time* slot = finishes_.back().get();
  Engine* eng = &on;
  proc.on_finished([slot, eng] {
    // Own slot, own LP: no other worker writes here, and join() folds the
    // slots after the run — never concurrently.
    if (eng->now() > *slot) *slot = eng->now();
  });
  proc.start(on);
}

void ProcessGroup::spawn(Process p, std::string name) {
  spawn_impl(eng_, std::move(p), std::move(name));
}

void ProcessGroup::spawn_on(std::size_t lp, Process p, std::string name) {
  if (pe_ == nullptr) {
    throw std::logic_error(
        "ProcessGroup::spawn_on: group is bound to a single Engine, not a "
        "ParallelEngine; use spawn()");
  }
  spawn_impl(pe_->lp(lp), std::move(p), std::move(name));
}

std::string ProcessGroup::stuck_report() const {
  std::string report;
  std::size_t stuck = 0;
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    if (processes_[i]->done()) continue;
    report += stuck == 0 ? "" : ", ";
    report += names_[i].empty() ? "#" + std::to_string(i)
                                : names_[i] + " (#" + std::to_string(i) + ")";
    ++stuck;
  }
  if (stuck == 0) return "none";
  return std::to_string(stuck) + " of " + std::to_string(processes_.size()) +
         " process(es) blocked: " + report;
}

Time ProcessGroup::join() {
  try {
    if (pe_ != nullptr) {
      pe_->run();
    } else {
      eng_.run();
    }
  } catch (const WatchdogTimeout& e) {
    // Re-raise with the stuck-process report attached: the watchdog knows
    // the engine state, the group knows which activities never finished.
    throw WatchdogTimeout(std::string(e.what()) + "; " + stuck_report());
  }
  for (const auto& p : processes_) {
    p->rethrow_if_failed();
  }
  bool any_stuck = false;
  for (const auto& p : processes_) {
    if (!p->done()) any_stuck = true;
  }
  if (any_stuck) {
    throw DeadlockError(
        "ProcessGroup::join: the event queue drained with processes still "
        "suspended (simulation deadlock); " +
        stuck_report());
  }
  Time last = Time::zero();
  for (const auto& f : finishes_) last = std::max(last, *f);
  return last;
}

}  // namespace acc::sim
