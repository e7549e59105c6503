/**
 * @file
 * RmbNetwork: the public entry point to the reconfigurable multiple
 * bus simulation.
 *
 * Assembles N INCs and PEs around the N x k segment grid and runs the
 * full protocol of paper section 2: top-bus injection, header
 * propagation with Hack/Nack, pipelined data streaming, Fack
 * teardown, and the systolic compaction that continuously moves
 * virtual buses to the lowest free segments.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "rmb/config.hh"
#include "rmb/inc.hh"
#include "rmb/protocol_core.hh"
#include "rmb/types.hh"
#include "rmb/virtual_bus.hh"
#include "sim/random.hh"

namespace rmb {
namespace core {

/** Id of a multicast/broadcast group (1-based, per network). */
using MulticastId = std::uint64_t;

/**
 * One multicast (or broadcast) delivery: a single virtual bus spans
 * from the source to the farthest member; the other members tap the
 * bus as the flits stream past (the paper's section-1 extension,
 * using the section-2.1 "enhanced" PE interface so taps do not
 * occupy receive ports).
 */
struct MulticastRecord
{
    MulticastId id = 0;
    net::MessageId carrier = net::kNoMessage;
    net::NodeId src = 0;
    /** Member nodes (excludes the source). */
    std::vector<net::NodeId> members;
    /** Tick each member saw the final payload flit; parallel to
     *  members, 0 until the group completes. */
    std::vector<sim::Tick> deliveredAt;
    bool complete = false;
};

/**
 * The RMB network: the reference discrete-event engine.  Every header
 * hop, INC cycle tick and teardown step is a `sim::EventQueue` event;
 * each INC runs its own cycle FSM with real clock skew.  The protocol
 * handlers both engines share live in ProtocolCore; see RmbConfig
 * for tunables and net::Network for the send/stats interface shared
 * with the baselines.
 */
class RmbNetwork : public ProtocolCore<RmbNetwork>
{
  public:
    RmbNetwork(sim::Simulator &simulator, const RmbConfig &config);
    ~RmbNetwork() override;

    /**
     * Deliver @p payload_flits to every node in @p members over one
     * virtual bus spanning to the farthest member (clockwise);
     * intermediate members snoop the passing flits.
     * @return a group id for multicastRecord().
     */
    MulticastId multicast(net::NodeId src,
                          std::vector<net::NodeId> members,
                          std::uint32_t payload_flits);

    /** Multicast to every other node (full-ring virtual bus). */
    MulticastId broadcast(net::NodeId src,
                          std::uint32_t payload_flits);

    /**
     * Look up a multicast group's record; panics with the offending
     * id if no such group was ever created.
     */
    const MulticastRecord &multicastRecord(MulticastId id) const;

    /** INC @p i; panics with the offending index if out of range. */
    const Inc &
    inc(std::uint32_t i) const
    {
        rmb_assert(i < incs_.size(), "no INC with index ", i,
                   " (the ring has ", incs_.size(), " nodes)");
        return incs_[i];
    }

    /** Base stamp + the carrying bus's id/state/epoch/extent. */
    std::uint64_t progressStamp(net::MessageId id) const override;

  private:
    friend class ProtocolCore<RmbNetwork>;
    // ------------------------------------------------------------
    // Interface reserved for Inc (the compaction engine): the INCs
    // are the only callers of the make/break steps, the Lemma-1
    // bookkeeping and the neighbour/RNG accessors below.
    // ------------------------------------------------------------
    friend class Inc;

    /**
     * Execute the make step of every eligible move at @p gap for bus
     * levels of @p parity, appending to @p out the records the
     * caller must pass to breakMoves() half a cycle later.
     */
    void makeEligibleMoves(GapId gap, int parity,
                           std::vector<MoveRecord> &out);

    /** Execute the break step for records produced by make. */
    void breakMoves(const std::vector<MoveRecord> &records);

    /** Lemma-1 bookkeeping: called by an Inc on every cycle flip. */
    void noteCycleFlip(std::uint32_t inc_index);

    /** Neighbour flag access for the cycle FSMs. */
    const Inc &
    leftOf(std::uint32_t i) const
    {
        return incs_[ringPrev(i, config_.numNodes)];
    }
    const Inc &
    rightOf(std::uint32_t i) const
    {
        return incs_[ringNext(i, config_.numNodes)];
    }

    /** RNG stream (backoff jitter, INC clock phase). */
    sim::Random &rng() { return rng_; }

    // --- agenda and hooks for ProtocolCore ---
    void scheduleHeaderArrive(const VirtualBus &bus);
    void scheduleTeardownStep(const VirtualBus &bus);
    void scheduleInject(net::NodeId node, sim::Tick delay);
    void afterMutation() { checkAfterMutation(); }
    /** Profiled ProtocolCore::tryInject. */
    void tryInject(net::NodeId node);
    /** Wakes blocked headers at @p gap, then the core's wakeup. */
    void segmentFreed(GapId gap, Level level);
    /** Take a Blocked bus off its gap's waiter list. */
    void leaveWaiters(VirtualBus &bus);
    void finishMulticast(net::MessageId carrier);
    /** Sever the silent bus (teardowns and closed-form streaming
     *  are exempt). */
    bool rescueCarrier(VirtualBus &bus);
    /** A Blocked bus must be on its gap's waiter list. */
    void auditBus(const VirtualBus &bus) const;

    // --- the flit path (all take the bus handle; the bus may die) ---
    void headerArrive(BusHandle h);
    void tryAdvance(BusHandle h);
    void acceptAtDestination(VirtualBus &bus);
    void hackArriveAtSource(BusHandle h);
    // Detailed flit-level streaming (Dack flow control).
    void departFlit(BusHandle h, std::uint32_t seq);
    void flitArriveAtDst(BusHandle h, std::uint32_t seq);
    void dackArriveAtSource(BusHandle h);
    void onHeaderTimeout(BusHandle h, sim::Tick since);

    /** The live bus @p h names, or nullptr once it retired. */
    VirtualBus *
    find(BusHandle h)
    {
        const std::uint32_t slot = handleSlot(h);
        if (slot >= pool_.size())
            return nullptr;
        VirtualBus &bus = pool_[slot];
        return bus.gen == handleGen(h) && bus.live ? &bus : nullptr;
    }

    /** find(), but also nullptr once a fault or the watchdog severed
     *  the bus: the step @p h was scheduled for died with it. */
    VirtualBus *
    findUnsevered(BusHandle h)
    {
        VirtualBus *bus = find(h);
        return bus && bus->state != BusState::FaultTeardown ? bus
                                                            : nullptr;
    }

    /** The live bus @p h names; panics if it retired. */
    VirtualBus &busAt(BusHandle h);

    /** Contiguous; never resized after construction (the INC
     *  clock events point into it). */
    std::vector<Inc> incs_;

    /** Blocked buses waiting for a segment per gap, FIFO.  Event
     *  closures, waiter lists and move records hold BusHandles. */
    std::vector<std::deque<BusHandle>> waiters_;

    std::vector<MulticastRecord> multicasts_;
    std::unordered_map<net::MessageId, MulticastId>
        carrierToMulticast_;
};

} // namespace core
} // namespace rmb
