/**
 * @file
 * CycleKernelEngine: the time-stepped structure-of-arrays backend.
 *
 * Same protocol as RmbNetwork (top-bus injection, header propagation
 * with Hack/Nack, closed-form pipelined streaming, Fack teardown,
 * make-before-break compaction, transient-fault sever/recovery), a
 * different execution model:
 *
 *  - Segment occupancy and fault state are uint64_t bitplanes
 *    (kernel/bitplane.hh); the compaction make step filters its
 *    candidates word-parallel per level instead of per-INC events.
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
 *  - Virtual buses live in a recycled slot pool with generation
 *    counters; a sever or teardown bumps the generation, which
 *    lazily invalidates every in-flight wheel action of the old
 *    life - the kernel never cancels.
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
#include <memory>
#include <unordered_map>
#include <vector>

#include "obs/trace.hh"
#include "rmb/bus_pool.hh"
#include "rmb/config.hh"
#include "rmb/engine.hh"
#include "rmb/kernel/bitplane.hh"
#include "rmb/pe.hh"
#include "rmb/types.hh"
#include "rmb/virtual_bus.hh"
#include "sim/random.hh"

namespace rmb {
namespace core {

class FaultSchedule;

class CycleKernelEngine : public Engine
{
  public:
    CycleKernelEngine(sim::Simulator &simulator,
                      const RmbConfig &config);
    ~CycleKernelEngine() override;

    net::MessageId send(net::NodeId src, net::NodeId dst,
                        std::uint32_t payload_flits) override;

    const RmbConfig &
    config() const override
    {
        return config_;
    }
    const RmbStats &
    rmbStats() const override
    {
        return rmbStats_;
    }

    void failSegment(GapId gap, Level level) override;
    void repairSegment(GapId gap, Level level) override;
    void auditInvariants() const override;

    bool
    segmentOccupied(GapId gap, Level level) const override
    {
        return planes_.occupied(gap, level);
    }
    bool
    segmentFaulty(GapId gap, Level level) const override
    {
        return planes_.faulted(gap, level);
    }
    std::uint32_t
    faultySegments() const override
    {
        return planes_.faultyCount();
    }
    std::uint64_t
    occupiedSegments() const override
    {
        return planes_.occupiedCount();
    }
    double
    segmentUtilization(GapId gap, Level level,
                       sim::Tick now) const override
    {
        return planes_.utilization(gap, level, now);
    }
    double
    averageSegmentUtilization(sim::Tick now) const override
    {
        return planes_.averageUtilization(now);
    }

    /** Completed global compaction cycles (make steps). */
    std::uint64_t cycles() const { return cycleIndex_; }

    // --- delivery supervisor hooks (docs/ENGINE.md) ---

    /** Base stamp + the carrying pooled bus's id/state/gen/extent. */
    std::uint64_t progressStamp(net::MessageId id) const override;

    /**
     * Bus-carried messages are exempt (the wheel cannot lose
     * actions); a queued message whose route permanent damage has
     * cut is dead-lettered.
     */
    bool rescueStalled(net::MessageId id) override;

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

    /**
     * Test probe: move the bus pool to fresh storage on every slot
     * allocation and poison the old (BusPool::setRelocateOnAlloc).
     */
    void
    setTestRelocatePool(bool on)
    {
        pool_.setRelocateOnAlloc(on);
    }

  private:
    /** One pooled virtual bus; satisfies hopMovableRule's BusT. */
    struct KBus
    {
        VirtualBusId id = kNoBus;
        net::MessageId message = net::kNoMessage;
        net::NodeId src = 0;
        net::NodeId dst = 0;
        BusState state = BusState::Advancing;
        net::NodeId headNode = 0;
        sim::Tick injectedAt = 0;
        std::uint32_t hopsFreed = 0;
        bool topReleased = false;
        bool live = false;
        /** Bumped on teardown start and retirement; stale wheel
         *  actions compare and drop. */
        std::uint32_t gen = 0;
        std::vector<Hop> hops;

        GapId srcGap() const { return src; }
    };

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

    // --- protocol steps (mirrors of the event engine's) ---
    void tryInject(net::NodeId node);
    void headerArrive(std::uint32_t slot);
    void tryAdvance(std::uint32_t slot);
    void acceptAtDestination(KBus &bus);
    void hackArriveAtSource(std::uint32_t slot);
    void finalFlitArrive(std::uint32_t slot);
    void startTeardown(KBus &bus, BusState kind);
    void teardownStep(std::uint32_t slot);
    void busFinished(std::uint32_t slot, const Hop &last_hop);
    void scheduleRetry(net::NodeId node, net::MessageId msg);
    void severOccupant(GapId gap, Level level, std::uint32_t slot);
    void severBus(KBus &bus, std::uint64_t reason);
    /** Dead-letter @p m (severedAt_ lost accounting included). */
    void writeOff(net::Message &m, obs::DeadLetterReason reason);
    /** Free one segment of the bus in @p slot.  The wakeup may
     *  inject a bus and grow pool_, so it takes a slot, not a
     *  `KBus &`, and callers re-read pool_ afterwards. */
    void releaseSegment(std::uint32_t slot, GapId gap, Level level,
                        std::uint64_t reason);
    void segmentFreed(GapId gap, Level level);

    // --- compaction cycle ---
    void armCycle();
    void makeStep(sim::Tick now);
    void breakStep(sim::Tick now);
    void exitQuietCycles(sim::Tick now);

    // --- helpers ---
    std::uint32_t allocSlot();
    net::NodeId effectiveDst(const KBus &bus) const;
    std::uint32_t pathLength(const KBus &bus) const;
    bool isFree(GapId gap, Level level) const;
    std::size_t hopIndexAt(const KBus &bus, GapId gap) const;
    obs::TraceEvent busEvent(obs::EventKind kind, const KBus &bus,
                             net::NodeId node, GapId gap = 0,
                             Level level = kNoLevel) const;
    void checkAfterMutation() const;

    RmbConfig config_;
    sim::Random rng_;
    kernel::SegmentPlanes planes_;
    std::vector<Pe> pes_;

    /** Bus slots.  Growth moves every KBus, so no `KBus &` may be
     *  held across a call that can inject a bus (releaseSegment,
     *  segmentFreed, tryInject, busFinished -> allocSlot).  Every
     *  live bus holds a segment from allocSlot() until retire(), so
     *  the pool never exceeds N*k slots. */
    BusPool<KBus> pool_;
    VirtualBusId nextBusId_ = 1;
    std::uint64_t liveBuses_ = 0;

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

    std::unordered_map<net::MessageId, sim::Tick> severedAt_;
    std::unique_ptr<FaultSchedule> faults_;
    TestMutation mutation_ = TestMutation::None;

    RmbStats rmbStats_;
};

} // namespace core
} // namespace rmb
