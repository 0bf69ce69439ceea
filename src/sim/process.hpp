// Simulation processes as C++20 coroutines.
//
// A Process is a lazily-started coroutine.  It can be:
//   * spawned as a root activity:        engine.spawn? -> sim::spawn(eng, fn(...))
//   * awaited as a sub-activity:         co_await child_process(...)
//
// Suspension points are awaitables built on Engine::schedule, so a process
// never blocks a host thread; it is resumed by the event that completes
// its wait.  Exceptions thrown inside a process propagate to the awaiting
// parent, or — for detached root processes — to Engine::run().
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace acc::sim {

class Process {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    std::coroutine_handle<> await_suspend(Handle h) noexcept {
      promise_type& p = h.promise();
      p.finished = true;
      if (p.engine) {
        p.engine->tracer().instant(trace::Category::kProcess, -1,
                                   "process/finish", p.engine->now());
      }
      if (p.on_finished) p.on_finished();
      // A child finishing inside its parent's inline start returns to
      // that await_suspend, which lets the parent continue.
      if (p.starting) return std::noop_coroutine();
      if (p.continuation) return p.continuation;
      if (p.exception && p.engine) {
        // Detached root process: surface the failure through the engine.
        p.engine->report_failure(p.exception);
      }
      return std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };

  struct promise_type {
    Engine* engine = nullptr;            // set when spawned or awaited
    std::coroutine_handle<> continuation;  // parent awaiting this process
    std::exception_ptr exception;
    bool finished = false;
    bool started = false;                // body has begun executing
    bool starting = false;               // inside the awaiter's inline start
    InlineCallback on_finished;          // completion hook (Latch, tests)

    Process get_return_object() {
      return Process(Handle::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { exception = std::current_exception(); }
  };

  Process() = default;
  explicit Process(Handle h) : h_(h) {}
  Process(Process&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  Process& operator=(Process&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, nullptr);
    }
    return *this;
  }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process() { destroy(); }

  bool valid() const { return static_cast<bool>(h_); }
  bool done() const { return h_ && h_.promise().finished; }

  /// True if the process terminated by throwing.
  bool failed() const { return h_ && h_.promise().exception != nullptr; }

  /// Awaiting a Process starts it (lazily) and suspends the parent until
  /// it completes; an exception inside the child rethrows here.  Awaiting
  /// a temporary is safe: the temporary lives in the awaiting coroutine's
  /// frame until the full expression ends, i.e. after resumption.
  auto operator co_await() {
    struct Awaiter {
      Handle h;
      bool await_ready() { return h.promise().finished; }
      bool await_suspend(std::coroutine_handle<> parent) {
        promise_type& p = h.promise();
        p.continuation = parent;
        if (!p.started) {
          // Lazy child: run it inline until it first suspends or ends.
          // One that ends synchronously resumes the parent by returning
          // false, so a loop of such awaits never nests stack frames.
          p.started = true;
          p.starting = true;
          h.resume();
          p.starting = false;
        }
        // Otherwise it is already running (spawned earlier): just wait
        // for completion — resuming it here would corrupt its own
        // suspend point.
        return !p.finished;
      }
      void await_resume() {
        if (h.promise().exception) {
          std::rethrow_exception(h.promise().exception);
        }
      }
    };
    assert(h_);
    return Awaiter{h_};
  }

  /// Starts the process as a detached root activity of `eng`.  The caller
  /// must keep the Process object alive until it finishes (the engine's
  /// event queue only references the frame, not the wrapper).
  void start(Engine& eng) {
    assert(h_ && !h_.promise().started);
    h_.promise().started = true;
    bind_engine(eng);
    eng.tracer().instant(trace::Category::kProcess, -1, "process/spawn",
                         eng.now());
    // Kick off at the current instant via the event queue to preserve
    // deterministic ordering with already-scheduled events.
    eng.schedule(Time::zero(), [h = h_] { h.resume(); });
  }

  /// Installs a completion hook; runs exactly once when the process ends.
  void on_finished(InlineCallback fn) {
    assert(h_);
    if (h_.promise().finished) {
      fn();
    } else {
      h_.promise().on_finished = std::move(fn);
    }
  }

  /// Rethrows the stored exception, if any (for finished root processes).
  void rethrow_if_failed() const {
    if (h_ && h_.promise().exception) {
      std::rethrow_exception(h_.promise().exception);
    }
  }

  /// Records which engine the process belongs to (needed for failure
  /// reporting from detached roots); harmless to call repeatedly.
  void bind_engine(Engine& eng) {
    assert(h_);
    h_.promise().engine = &eng;
  }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }

  Handle h_;
};

/// Awaitable: suspend for a simulated duration.
///   co_await Delay{eng, Time::micros(5)};
struct Delay {
  Engine& eng;
  Time duration;

  bool await_ready() const { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    // Gated at the call site (not just inside span()) so a disabled
    // tracer skips the argument setup entirely on this hot awaitable.
    if (eng.tracer().enabled()) {
      eng.tracer().span(trace::Category::kProcess, -1, "process/delay",
                        eng.now(), duration);
    }
    eng.schedule(duration, [h] { h.resume(); });
  }
  void await_resume() const {}
};

/// Awaitable: suspend until an absolute simulated time (>= now).
struct DelayUntil {
  Engine& eng;
  Time when;

  bool await_ready() const { return when <= eng.now(); }
  void await_suspend(std::coroutine_handle<> h) {
    if (eng.tracer().enabled()) {
      eng.tracer().span(trace::Category::kProcess, -1, "process/wait",
                        eng.now(), when - eng.now());
    }
    eng.schedule_at(when, [h] { h.resume(); });
  }
  void await_resume() const {}
};

/// Thrown by ProcessGroup::join() when the event queue drains with
/// processes still suspended (classic simulation deadlock).  Derives from
/// std::logic_error so existing handlers keep working; the message names
/// the blocked processes.
class DeadlockError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

class ParallelEngine;  // sim/parallel.hpp

/// A group of root processes run to completion together.  Keeps the
/// Process wrappers (and thus the coroutine frames) alive for the duration
/// of the run; join() rethrows the first failure.
///
/// Two driving modes: bound to one Engine (the classic serial path), or
/// bound to a ParallelEngine — spawn_on() then places each process on its
/// owning LP's shard engine and join() drives the windowed scheduler.
/// Every process records its finish time in its OWN slot (written only by
/// the worker running that process's LP), so join()'s max-fold is
/// thread-safe and worker-count independent.
class ProcessGroup {
 public:
  explicit ProcessGroup(Engine& eng) : eng_(eng) {}

  /// Parallel mode: processes spawn onto LP shard engines (spawn() with
  /// no LP goes to LP 0) and join() drives `pe.run()` to completion.
  explicit ProcessGroup(ParallelEngine& pe);

  /// Spawns a detached root process on the group's engine (LP 0 in
  /// parallel mode).  `name` (optional) identifies the process in
  /// watchdog/deadlock diagnostics; unnamed processes are reported by
  /// their spawn index.
  void spawn(Process p, std::string name = {});

  /// Parallel mode only: spawns a detached root process on LP `lp`'s
  /// shard engine.  The process must confine itself to that LP's state
  /// (docs/ENGINE.md ownership rules).
  void spawn_on(std::size_t lp, Process p, std::string name = {});

  /// Runs the engine (or the parallel scheduler) until all events drain,
  /// then verifies every process finished.  A process still pending
  /// throws DeadlockError naming the stuck processes; an engine watchdog
  /// trip rethrows WatchdogTimeout with the same stuck-process report
  /// appended.
  ///
  /// Returns the time the LAST PROCESS finished — not the time the event
  /// queue emptied.  The two differ when defensive timers (e.g. TCP
  /// retransmission timeouts that never fire) outlive the workload; those
  /// must not count as application run time.
  Time join();

  std::size_t size() const { return processes_.size(); }

  /// Human-readable list of processes that have not finished ("none" when
  /// all are done) — what the deadlock/watchdog diagnostics embed.
  std::string stuck_report() const;

 private:
  void spawn_impl(Engine& on, Process p, std::string name);

  Engine& eng_;
  ParallelEngine* pe_ = nullptr;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<std::string> names_;
  /// Per-process finish times; each slot is written only by the worker
  /// executing that process's LP (stable address: one heap cell per
  /// process, like the Process wrappers themselves).
  std::vector<std::unique_ptr<Time>> finishes_;
};

}  // namespace acc::sim
