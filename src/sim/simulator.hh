/**
 * @file
 * The simulation driver: owns the clock and the event queue.
 */

#pragma once

#include <cstdint>
#include <functional>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace rmb {
namespace sim {

/**
 * Single-threaded discrete-event simulator.
 *
 * Components keep a reference to the Simulator, schedule work with
 * schedule()/scheduleAt(), and read the current time with now().  The
 * owner drives the simulation with run(), runUntil() or runFor().
 */
class Simulator
{
  public:
    Simulator() = default;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule @p cb to run @p delay ticks from now. */
    EventId
    schedule(Tick delay, EventQueue::Callback cb)
    {
        return events_.schedule(now_ + delay, std::move(cb));
    }

    /** Schedule @p cb at absolute time @p when (>= now). */
    EventId scheduleAt(Tick when, EventQueue::Callback cb);

    /**
     * Run @p cb @p delay ticks from now and then every @p period
     * ticks (at most EventQueue::kMaxPeriod) until cancelled; see
     * EventQueue::scheduleEvery.
     */
    EventId
    scheduleEvery(Tick delay, Tick period, EventQueue::Callback cb)
    {
        return events_.scheduleEvery(now_ + delay, period,
                                     std::move(cb));
    }

    /** Cancel a pending event; see EventQueue::cancel. */
    bool cancel(EventId id) { return events_.cancel(id); }

    /**
     * Run until the event queue drains or @p max_events fire.
     * @return number of events executed by this call.
     */
    std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

    /**
     * Run all events with tick <= @p until; afterwards now() == until
     * even if the queue drained early.
     * @return number of events executed by this call.
     */
    std::uint64_t runUntil(Tick until);

    /** Run for @p duration ticks from the current time. */
    std::uint64_t runFor(Tick duration) {
        return runUntil(now_ + duration);
    }

    /** @return true once no live events remain. */
    bool idle() const { return events_.empty(); }

    /**
     * Advance the clock to @p to without executing events, provided
     * nothing is pending at or before @p to and the active run
     * horizon (runUntil/runFor) does not end first.
     *
     * This is the fast path for self-clocked components: inside an
     * event callback they may consume their own future work directly
     * instead of bouncing every tick through the event heap.  The
     * horizon guard keeps runUntil() exact — a component can never
     * advance time past the caller's stopping point.
     *
     * @return true when the clock moved to @p to.
     */
    bool
    advanceIfIdle(Tick to)
    {
        if (to <= now_ || to > horizon_)
            return false;
        if (!events_.empty() && events_.nextTick() <= to)
            return false;
        now_ = to;
        return true;
    }

    /** Total events executed over the simulator's lifetime. */
    std::uint64_t numExecuted() const { return events_.numExecuted(); }

    /** Direct queue access (tests and advanced schedulers). */
    EventQueue &eventQueue() { return events_; }

  private:
    EventQueue events_;
    Tick now_ = 0;
    /** Stopping point of the innermost runUntil(); limits advanceIfIdle. */
    Tick horizon_ = kMaxTick;
};

} // namespace sim
} // namespace rmb
