/**
 * @file
 * CycleKernelEngine: the time-stepped structure-of-arrays backend.
 *
 * Same protocol as RmbNetwork (top-bus injection, header propagation
 * with Hack/Nack, closed-form pipelined streaming, Fack teardown,
 * make-before-break compaction, transient-fault sever/recovery) - the
 * handlers both share are ProtocolCore's - with a different
 * execution model:
 *
 *  - The compaction make step filters its candidates word-parallel
 *    per level over the segment bitplanes (kernel/bitplane.hh)
 *    instead of per-INC events.
 *  - Compaction is one synchronous global cycle of fixed period P
 *    (drawn once from [cyclePeriodMin, cyclePeriodMax]): gap g moves
 *    its levels of parity (g + c) mod 2 at cycle c - the same
 *    odd/even schedule the per-INC FSMs converge to, with skew
 *    pinned to 0.  Eligibility is the *shared* Figure-7 rule
 *    (hopMovableRule), re-evaluated per candidate, so any
 *    serialization the event engine could produce is also legal
 *    here.
 *  - Protocol steps live on a bucket timing wheel, not the event
 *    heap: the engine keeps at most one pending simulator event (its
 *    next due tick), and drains every wheel action for that tick in
 *    one wake.  simulator().now() therefore stays the single time
 *    source, and all message timestamps are exact.
 *  - A wheel action names its bus by pool slot and generation; the
 *    kernel bumps the generation when a teardown starts (and the
 *    pool when the bus retires), which lazily invalidates every
 *    in-flight action of the old life - the kernel never cancels.
 *
 * Configurations the kernel cannot model (detailedFlits, Wait-mode
 * blocking) are refused by RmbConfig::validate() with the exact
 * option to change; watchdogTimeout runs through the engine-generic
 * DeliverySupervisor (rmb/supervisor.hh).  Multicast/broadcast are
 * RmbNetwork APIs, not part of the Engine contract.  See
 * docs/ENGINE.md.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "rmb/config.hh"
#include "rmb/protocol_core.hh"
#include "rmb/types.hh"
#include "rmb/virtual_bus.hh"

namespace rmb {
namespace core {

class CycleKernelEngine : public ProtocolCore<CycleKernelEngine>
{
  public:
    CycleKernelEngine(sim::Simulator &simulator,
                      const RmbConfig &config);
    ~CycleKernelEngine() override;

    /** Completed global compaction cycles (make steps). */
    std::uint64_t cycles() const { return cycleIndex_; }

    /** Base stamp + the carrying pooled bus's id/state/gen/extent. */
    std::uint64_t progressStamp(net::MessageId id) const override;

    /**
     * Testing-only seeded divergence (tests/engine_diff_test.cc's
     * WILL_FAIL probe): ShortCircuit delivers every message one node
     * early, which the outcome digest must catch via pathHops.
     * Never set outside tests.
     */
    enum class TestMutation : std::uint8_t
    {
        None,
        ShortCircuit,
    };
    void setTestMutation(TestMutation m) { mutation_ = m; }

  private:
    friend class ProtocolCore<CycleKernelEngine>;

    /** One deferred protocol step on the timing wheel. */
    struct Action
    {
        enum Kind : std::uint8_t
        {
            HeaderArrive,  //!< slot+gen
            HackArrive,    //!< slot+gen
            FinalFlit,     //!< slot+gen
            TeardownStep,  //!< slot+gen
            TryInject,     //!< slot = node id, gen unused
        };
        Kind kind;
        std::uint32_t slot;
        std::uint32_t gen;
        sim::Tick due;
    };

    /** One make-step record awaiting its break step.  Matched by
     *  bus *id* (unique per life), exactly like the event engine's
     *  MoveRecord, so slot recycling cannot confuse a break. */
    struct MoveRecord
    {
        std::uint32_t slot;
        VirtualBusId bus;
        GapId gap;
        Level fromLevel;
        Level toLevel;
    };

    static constexpr sim::Tick kNever = ~sim::Tick{0};

    // --- agenda (wheel + far list + cycle clock) ---
    void scheduleAction(sim::Tick delay, Action::Kind kind,
                        std::uint32_t slot, std::uint32_t gen);
    void ensureWake(sim::Tick due);
    void onWake();
    void processTick(sim::Tick now);
    void dispatch(const Action &a);
    sim::Tick nextDue() const;
    void rearm();

    // --- agenda and hooks for ProtocolCore ---
    void
    scheduleHeaderArrive(const VirtualBus &bus)
    {
        scheduleAction(config_.headerHopDelay, Action::HeaderArrive,
                       bus.slot, bus.gen);
    }
    void
    scheduleTeardownStep(const VirtualBus &bus)
    {
        scheduleAction(config_.ackHopDelay, Action::TeardownStep,
                       bus.slot, bus.gen);
    }
    void
    scheduleInject(net::NodeId node, sim::Tick delay)
    {
        scheduleAction(delay, Action::TryInject, node, 0);
    }
    void onInjected() { armCycle(); }
    /** Invalidate every in-flight header/Hack/FF action of this
     *  life; the teardown walk runs on the new generation. */
    void onTeardownStart(VirtualBus &bus) { ++bus.gen; }
    /** A fault or repair outside processTick changed the grid. */
    void
    faultsChanged()
    {
        if (cycleQuiet_)
            exitQuietCycles(simulator().now());
    }
    std::uint32_t pathLength(const VirtualBus &bus) const;
    void auditBus(const VirtualBus &bus) const;

    // --- the flit path ---
    void headerArrive(std::uint32_t slot);
    void tryAdvance(std::uint32_t slot);
    void acceptAtDestination(VirtualBus &bus);
    void hackArriveAtSource(std::uint32_t slot);

    // --- compaction cycle ---
    void armCycle();
    void makeStep(sim::Tick now);
    void breakStep(sim::Tick now);
    void exitQuietCycles(sim::Tick now);

    net::NodeId effectiveDst(const VirtualBus &bus) const;

    // Timing wheel: power-of-two buckets over absolute tick & mask;
    // actions with delay >= wheel span overflow to farActions_.
    std::vector<std::vector<Action>> wheel_;
    sim::Tick wheelMask_ = 0;
    std::uint64_t wheelPending_ = 0;
    std::vector<Action> farActions_;
    sim::Tick farMinDue_ = kNever;
    /** Earliest armed simulator wake; kNever when idle. */
    sim::Tick armedAt_ = kNever;
    /** The tick currently being processed (reentrancy guard). */
    sim::Tick processing_ = kNever;

    // Synchronous compaction clock.
    sim::Tick period_ = 0;
    bool cycleArmed_ = false;
    sim::Tick nextMakeAt_ = kNever;
    sim::Tick nextBreakAt_ = kNever;
    std::uint64_t cycleIndex_ = 0;
    std::vector<MoveRecord> moveRecords_;
    /**
     * Plane epoch at which a make pass of the given cycle parity
     * last found nothing to move; while the epoch still matches,
     * the same pass would find nothing again and is skipped.
     */
    std::uint64_t noMoveEpoch_[2] = {~0ull, ~0ull};
    /**
     * Quiet mode: both parities proved no-move at quietEpoch_, so
     * the cycle clock stops waking at all; exitQuietCycles()
     * accounts the slept (provably no-op) cycles when the grid
     * next changes.
     */
    bool cycleQuiet_ = false;
    std::uint64_t quietEpoch_ = 0;

    TestMutation mutation_ = TestMutation::None;
};

} // namespace core
} // namespace rmb
