/**
 * @file
 * The interconnection network controller (INC) of one node.
 *
 * Each INC runs the odd/even cycle FSM off its own local clock and,
 * in every Moving phase, performs the downward make-before-break
 * moves of eligible virtual buses crossing its output gap (paper
 * sections 2.3-2.5).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "rmb/cycle_fsm.hh"
#include "rmb/types.hh"
#include "rmb/virtual_bus.hh"
#include "sim/types.hh"

namespace rmb {
namespace core {

class RmbNetwork;

/** A compaction make step, handed to the break step half a local
 *  period later. */
struct MoveRecord
{
    BusHandle bus;
    GapId gap;
    Level fromLevel;
    Level toLevel;
};

/** One INC: compaction engine + cycle controller. */
class Inc
{
  public:
    /**
     * @param index position on the ring (also its output GapId)
     * @param period local clock period in ticks
     */
    Inc(std::uint32_t index, sim::Tick period)
        : index_(index), period_(period)
    {}

    std::uint32_t index() const { return index_; }
    sim::Tick period() const { return period_; }

    const CycleFsm &fsm() const { return fsm_; }

    /** Completed odd/even cycles (for Lemma 1 checks). */
    std::uint64_t cycleCount() const { return fsm_.cycleCount(); }

    /**
     * Schedule the first tick (called once by RmbNetwork, which
     * must not move the Inc afterwards: the clock events point at
     * it).
     */
    void start(RmbNetwork &network);

  private:
    /**
     * One local clock tick: poll neighbour flags, advance the cycle
     * FSM, and begin the Moving phase's datapath switches when it
     * starts.
     */
    void tick(RmbNetwork &network);

    /** Schedule every tick after the first: one recurring event, or
     *  a self-rescheduling one for a period beyond
     *  EventQueue::kMaxPeriod. */
    void runClock(RmbNetwork &network);

    /**
     * Entering a Moving phase: execute the make step of every
     * eligible downward move at this INC's output gap, schedule the
     * break step half a period later, then raise ID.
     */
    void startMovingPhase(RmbNetwork &network);

    std::uint32_t index_;
    sim::Tick period_;
    CycleFsm fsm_;
    bool started_ = false;
    /** The make records awaiting this INC's break step; kept across
     *  cycles for its capacity.  A Moving phase ends only after its
     *  break step, so one buffer per INC suffices. */
    std::vector<MoveRecord> moves_;
};

} // namespace core
} // namespace rmb
