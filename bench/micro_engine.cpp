// Google-benchmark microbenchmarks of the event core: schedule/dispatch
// throughput of the zero-allocation engine (InlineCallback + 4-ary key
// heap over a callback slab + cancelable timers), coroutine ping-pong,
// timer churn, interior cancellation and the parallel engine's window
// barrier.
#include <benchmark/benchmark.h>

#include <coroutine>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"

namespace {

using namespace acc;

// ---------------------------------------------------------------------
// Schedule/dispatch
// ---------------------------------------------------------------------

/// Capture payload sized like the simulator's real events (TCP retransmit
/// captures {this, &conn, generation}; INIC timers {this, dst,
/// generation}): 24 bytes, which InlineCallback keeps in its slab slot.
struct EventPayload {
  void* owner;
  std::uint64_t generation;
  std::uint64_t* sink;
};

void schedule_dispatch_round(sim::Engine& eng, Rng& rng, int events,
                             std::uint64_t& sink) {
  EventPayload payload{&eng, 0, &sink};
  for (int i = 0; i < events; ++i) {
    payload.generation = rng.below(64);
    eng.schedule(Time::nanos(static_cast<std::int64_t>(rng.below(4096))),
                 [payload] { *payload.sink += payload.generation; });
  }
  eng.run();
}

void BM_NewEngine_ScheduleDispatch(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim::Engine eng;
    eng.reserve(static_cast<std::size_t>(events));
    Rng rng(7);
    schedule_dispatch_round(eng, rng, events, sink);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_NewEngine_ScheduleDispatch)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 17);

// ---------------------------------------------------------------------
// Coroutine ping-pong
// ---------------------------------------------------------------------

/// Minimal fire-and-forget coroutine: isolates the resume path (event
/// fires -> handle resumes -> next await schedules) from Process's
/// bookkeeping.
struct MicroTask {
  struct promise_type {
    MicroTask get_return_object() { return {}; }
    std::suspend_never initial_suspend() { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };
};

/// co_await delay.  The scheduled resume lambda carries the handle plus
/// the same payload the repo's Delay awaiter effectively carries (owner +
/// deadline) so the capture is representative, not artificially tiny.
struct MicroDelay {
  sim::Engine& eng;
  Time delay;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    const Time deadline = eng.now() + delay;
    void* owner = &eng;
    eng.schedule(delay, [h, owner, deadline] {
      benchmark::DoNotOptimize(owner);
      benchmark::DoNotOptimize(deadline);
      h.resume();
    });
  }
  void await_resume() const noexcept {}
};

/// Per-message defensive timer.  Every message in the simulator's
/// protocols (TCP burst, INIC go-back-N) arms a retransmission timeout
/// that the ACK almost always beats, and cancels it out of the heap.
struct NewEngineRto {
  sim::TimerHandle arm(sim::Engine& eng) {
    return eng.schedule_cancelable(Time::micros(200), [] {});
  }
  void ack(sim::Engine&, sim::TimerHandle h) { h.cancel(); }
};

MicroTask ping_pong_player(sim::Engine& eng, NewEngineRto& rto, int rounds,
                           Time period, std::uint64_t& bounces) {
  for (int i = 0; i < rounds; ++i) {
    auto armed = rto.arm(eng);
    co_await MicroDelay{eng, period};
    rto.ack(eng, armed);
    ++bounces;
  }
}

std::uint64_t run_ping_pong(sim::Engine& eng, std::vector<NewEngineRto>& rtos,
                            int rounds) {
  std::uint64_t bounces = 0;
  // All players awake at the same instants: every round exercises the
  // FIFO tie-break as well as schedule/dispatch/resume.
  for (auto& rto : rtos) {
    ping_pong_player(eng, rto, rounds, Time::micros(1), bounces);
  }
  eng.run();
  return bounces;
}

void BM_NewEngine_CoroutinePingPong(benchmark::State& state) {
  const int players = static_cast<int>(state.range(0));
  const int rounds = static_cast<int>(state.range(1));
  std::uint64_t total = 0;
  for (auto _ : state) {
    sim::Engine eng;
    std::vector<NewEngineRto> rtos(static_cast<std::size_t>(players));
    total += run_ping_pong(eng, rtos, rounds);
  }
  benchmark::DoNotOptimize(total);
  state.SetItemsProcessed(state.iterations() * players * rounds);
}
BENCHMARK(BM_NewEngine_CoroutinePingPong)
    ->Args({2, 1 << 12})
    ->Args({256, 1 << 7});

// ---------------------------------------------------------------------
// Timer churn: defensive timers that almost never fire
// ---------------------------------------------------------------------

/// The retransmit-timeout pattern: arm a timer per message, then the ACK
/// arrives first and cancel() removes the event in O(log n).
void BM_NewEngine_TimerChurn(benchmark::State& state) {
  const int messages = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    eng.reserve(static_cast<std::size_t>(messages) * 2);
    std::uint64_t acked = 0;
    for (int i = 0; i < messages; ++i) {
      auto rto = eng.schedule_cancelable(Time::millis(200), [] {});
      // The ACK arrives long before the timeout and disarms it.
      eng.schedule(Time::micros(i + 1), [rto, &acked]() mutable {
        rto.cancel();
        ++acked;
      });
    }
    eng.run();
    benchmark::DoNotOptimize(acked);
  }
  state.SetItemsProcessed(state.iterations() * messages);
}
BENCHMARK(BM_NewEngine_TimerChurn)->Arg(1 << 12);

// ---------------------------------------------------------------------
// Cancel-heavy: interior removal under load
// ---------------------------------------------------------------------

/// Worst case for the slot table: a large queue where most cancelable
/// events are removed from the middle of the heap before firing.
void BM_NewEngine_CancelHeavy(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    eng.reserve(static_cast<std::size_t>(events));
    Rng rng(11);
    std::vector<sim::TimerHandle> handles;
    handles.reserve(static_cast<std::size_t>(events));
    for (int i = 0; i < events; ++i) {
      handles.push_back(eng.schedule_cancelable(
          Time::nanos(static_cast<std::int64_t>(rng.below(1u << 20))),
          [] {}));
    }
    // Cancel ~75% in random order, then drain the survivors.
    for (auto& h : handles) {
      if (rng.below(4) != 0) h.cancel();
    }
    eng.run();
    benchmark::DoNotOptimize(eng.events_canceled());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_NewEngine_CancelHeavy)->Arg(1 << 12)->Arg(1 << 16);

// ---------------------------------------------------------------------
// Parallel engine: window-scheduler overhead
// ---------------------------------------------------------------------

/// Barrier overhead in isolation: many near-empty windows (one event per
/// LP per window, negligible per-event work), so the cost measured is
/// almost purely wakeup + claim + drain per window.  Watch this one when
/// touching the worker-pool synchronization.
void BM_ParallelEngine_WindowBarrier(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kLps = 8;
  constexpr int kWindows = 256;
  for (auto _ : state) {
    sim::ParallelConfig cfg;
    cfg.threads = threads;
    cfg.lookahead = Time::nanos(100);
    sim::ParallelEngine peng(kLps, cfg);
    for (std::size_t lp = 0; lp < kLps; ++lp) {
      for (int w = 0; w < kWindows; ++w) {
        peng.lp(lp).schedule_at(Time::nanos(w * 100), [] {});
      }
    }
    peng.run();
    benchmark::DoNotOptimize(peng.windows());
  }
  state.SetItemsProcessed(state.iterations() * kWindows);
}
BENCHMARK(BM_ParallelEngine_WindowBarrier)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
