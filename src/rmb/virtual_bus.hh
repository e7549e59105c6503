/**
 * @file
 * A virtual bus: the chain of physical bus segments carrying one
 * message (paper section 2.2, Figure 2).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "netbase/message.hh"
#include "rmb/types.hh"
#include "sim/types.hh"

namespace rmb {
namespace core {

/**
 * One hop of a virtual bus: the physical segment it occupies in one
 * gap.  During a make-before-break downward move the hop briefly owns
 * two segments: `level` (the old, upper one) and `dualLevel` (the
 * new, lower one); outside a move dualLevel == kNoLevel.
 */
struct Hop
{
    GapId gap = 0;
    Level level = kNoLevel;
    Level dualLevel = kNoLevel;
    /** Increments on every move; stale break events check it. */
    std::uint32_t moveSeq = 0;

    bool inMove() const { return dualLevel != kNoLevel; }

    /** The level the hop will sit at once any in-flight move ends. */
    Level
    settledLevel() const
    {
        return inMove() ? dualLevel : level;
    }
};

/** Protocol state of a virtual bus. */
enum class BusState : std::uint8_t
{
    Advancing,   //!< header flit moving toward the destination
    Blocked,     //!< header waiting for a free reachable segment
    AwaitHack,   //!< header accepted; Hack travelling back to source
    Streaming,   //!< data flits flowing
    FackTeardown, //!< FF delivered; Fack freeing hops back to source
    NackTeardown, //!< refused/aborted; Nack freeing hops to source
    FaultTeardown, //!< severed by a segment fault or watchdog; like
                   //!< NackTeardown (the message retries) but kept
                   //!< distinct for tracing and recovery metrics
};

/** True for any of the three teardown states. */
inline bool
isTeardown(BusState s)
{
    return s == BusState::FackTeardown ||
           s == BusState::NackTeardown ||
           s == BusState::FaultTeardown;
}

/**
 * Address of a pooled virtual bus (rmb/bus_pool.hh): its slot plus
 * one in the low 32 bits, the slot's generation above.  The
 * generation changes when the bus retires, so a handle names one
 * bus life, like its VirtualBusId, but finds it without a hash.  0
 * (kNoHandle == kNoBus) is never a handle.
 */
using BusHandle = std::uint64_t;

constexpr BusHandle kNoHandle = 0;

inline BusHandle
makeBusHandle(std::uint32_t slot, std::uint32_t gen)
{
    return (BusHandle{gen} << 32) | (BusHandle{slot} + 1);
}

inline std::uint32_t
handleSlot(BusHandle h)
{
    return static_cast<std::uint32_t>(h) - 1;
}

inline std::uint32_t
handleGen(BusHandle h)
{
    return static_cast<std::uint32_t>(h >> 32);
}

/**
 * Bookkeeping for one virtual bus.  The hop vector is ordered from
 * the source gap to the head gap and only grows and shrinks at the
 * head end.
 */
struct VirtualBus
{
    VirtualBusId id = kNoBus;
    /** Pool slot and its generation (BusPool); see handle(). */
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
    /** False once retired (the slot is free). */
    bool live = false;
    net::MessageId message = net::kNoMessage;
    net::NodeId src = 0;
    net::NodeId dst = 0;
    BusState state = BusState::Advancing;

    std::vector<Hop> hops;

    /** Node the header flit currently sits at (or is travelling to). */
    net::NodeId headNode = 0;

    /** Gaps already freed by a travelling Fack/Nack (from the head). */
    std::uint32_t hopsFreed = 0;

    sim::Tick injectedAt = 0;
    /** Tick the header became blocked (for the optional timeout). */
    sim::Tick blockedSince = 0;
    /**
     * Bumped on every protocol step this bus makes (advance, block,
     * ack, flit, teardown step).  The source-side watchdog snapshots
     * it and fires only if the bus made no progress for a whole
     * watchdog period - the signature of a silently lost ack.
     */
    std::uint64_t epoch = 0;
    /** True once the (source gap, top) segment released (stats). */
    bool topReleased = false;

    /**
     * Detailed flit-level streaming state (RmbConfig::detailedFlits).
     * Flit sequence numbers run 0..payload, the last one being the
     * final flit (FF).
     */
    std::uint32_t flitsSent = 0;     //!< departures so far
    std::uint32_t flitsAcked = 0;    //!< Dacks received at the source
    std::uint32_t flitsAtDst = 0;    //!< in-order arrivals at the dst
    sim::Tick lastFlitDepart = 0;    //!< tick of the last departure
    sim::Tick lastFlitArrive = 0;    //!< tick of the last dst arrival
    bool pumpStalled = false;        //!< window closed, pump paused

    /** The gap the source PE injects on. */
    GapId srcGap() const { return src; }

    /** The handle naming this bus life. */
    BusHandle handle() const { return makeBusHandle(slot, gen); }

    /** Whole clockwise path length in gaps. */
    std::uint32_t
    pathLength(net::NodeId n) const
    {
        return ringDistance(src, dst, n);
    }
};

} // namespace core
} // namespace rmb
