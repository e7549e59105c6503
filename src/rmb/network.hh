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
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "netbase/network.hh"
#include "obs/metrics.hh"
#include "rmb/bus_pool.hh"
#include "rmb/config.hh"
#include "rmb/engine.hh"
#include "rmb/inc.hh"
#include "rmb/pe.hh"
#include "rmb/segment_table.hh"
#include "rmb/status_register.hh"
#include "rmb/types.hh"
#include "rmb/virtual_bus.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace rmb {
namespace core {

class FaultSchedule;

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
 * The RMB network: the reference discrete-event engine.  See
 * RmbConfig for tunables, core::Engine for the backend contract
 * shared with the cycle kernel, and net::Network for the send/stats
 * interface shared with the baselines.
 */
class RmbNetwork : public Engine
{
  public:
    RmbNetwork(sim::Simulator &simulator, const RmbConfig &config);
    ~RmbNetwork() override;

    net::MessageId send(net::NodeId src, net::NodeId dst,
                        std::uint32_t payload_flits) override;

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
    const SegmentTable &segments() const { return segments_; }

    // --- Engine segment census (delegates to the SegmentTable) ---
    bool
    segmentOccupied(GapId gap, Level level) const override
    {
        return !segments_.isFree(gap, level);
    }
    bool
    segmentFaulty(GapId gap, Level level) const override
    {
        return segments_.isFaulty(gap, level);
    }
    std::uint32_t
    faultySegments() const override
    {
        return segments_.faultyCount();
    }
    std::uint64_t
    occupiedSegments() const override
    {
        return segments_.occupiedCount();
    }
    double
    segmentUtilization(GapId gap, Level level,
                       sim::Tick now) const override
    {
        return segments_.utilization(gap, level, now);
    }
    double
    averageSegmentUtilization(sim::Tick now) const override
    {
        return segments_.averageUtilization(now);
    }

    /** INC @p i; panics with the offending index if out of range. */
    const Inc &
    inc(std::uint32_t i) const
    {
        rmb_assert(i < incs_.size(), "no INC with index ", i,
                   " (the ring has ", incs_.size(), " nodes)");
        return incs_[i];
    }

    /**
     * Live virtual bus by id; nullptr if the bus existed but has
     * been retired.  Panics with the offending id if no bus with
     * that id was ever allocated (a caller bug, not a race).  A scan
     * of the bus pool: for tests and tools, not the protocol.
     */
    const VirtualBus *bus(VirtualBusId id) const;

    /** Ids of all live virtual buses (ascending). */
    std::vector<VirtualBusId> liveBusIds() const;

    /**
     * Test probe: move the bus pool to fresh storage on every bus
     * allocation and poison the old (BusPool::setRelocateOnAlloc).
     */
    void
    setTestRelocatePool(bool on)
    {
        pool_.setRelocateOnAlloc(on);
    }

    /**
     * Derived Table-1 status code of INC @p node's output port at
     * @p level, reconstructed from the virtual-bus structures (the
     * simulator's source of truth); panics if the electrical state
     * would be an illegal code.  PE-driven ports report Straight
     * sources the paper's table does not model and are flagged via
     * @p pe_driven.
     */
    std::uint8_t outputStatus(net::NodeId node, Level level,
                              bool *pe_driven = nullptr) const;

    /**
     * Fault injection: disable the physical segment at
     * (@p gap, @p level).  With RmbConfig::transientFaults the
     * segment may be *occupied*: the owning virtual bus is severed
     * and torn down hop by hop, and its message retried from the
     * source (docs/FAULTS.md).  Without it, faulting an occupied
     * segment is a hard error (the historical static-fault model).
     * The protocol routes and compacts around faulted segments; note
     * that faulting a gap's *top* segment disables injection at
     * that node, and faulting all k levels of a gap partitions the
     * (one-way) ring.
     */
    void failSegment(GapId gap, Level level) override;

    /**
     * Repair a faulted segment: the inverse of failSegment.  The
     * segment becomes claimable again once any severed occupant has
     * finished releasing it; blocked headers and pending injections
     * are woken exactly as on a normal release.
     */
    void repairSegment(GapId gap, Level level) override;

    /** Run every structural invariant check now (any VerifyLevel). */
    void auditInvariants() const override;

    // --- delivery supervisor hooks (docs/ENGINE.md) ---

    /** Base stamp + the carrying bus's id/state/epoch/extent. */
    std::uint64_t progressStamp(net::MessageId id) const override;

    /**
     * Sever the silent bus carrying @p id (teardowns and closed-form
     * streaming are exempt), or dead-letter a queued message whose
     * route permanent damage has cut.
     */
    bool rescueStalled(net::MessageId id) override;

  private:
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
    // --- protocol steps (all take the bus handle; the bus may die) ---
    void tryInject(net::NodeId node);
    void headerArrive(BusHandle h);
    void tryAdvance(BusHandle h);
    void acceptAtDestination(VirtualBus &bus);
    void hackArriveAtSource(BusHandle h);
    void finalFlitArrive(BusHandle h);
    // Detailed flit-level streaming (Dack flow control).
    void departFlit(BusHandle h, std::uint32_t seq);
    void flitArriveAtDst(BusHandle h, std::uint32_t seq);
    void dackArriveAtSource(BusHandle h);
    void startTeardown(VirtualBus &bus, BusState kind);
    void teardownStep(BusHandle h);
    // --- transient-fault recovery (docs/FAULTS.md) ---
    void severOccupant(GapId gap, Level level, BusHandle h);
    void severBus(VirtualBus &bus, std::uint64_t reason);
    /** Dead-letter @p m (severedAt_ lost accounting included). */
    void writeOff(net::Message &m, obs::DeadLetterReason reason);
    void finishMulticast(net::MessageId carrier);
    void busFinished(BusHandle h, const Hop &last_hop);
    void scheduleRetry(net::NodeId node, net::MessageId msg);
    void onHeaderTimeout(BusHandle h, sim::Tick since);

    /** Free one segment of the bus @p h and dispatch wakeups.  The
     *  wakeup may inject a bus and grow pool_, so it takes a handle,
     *  not a `VirtualBus &`, and callers look the bus up again. */
    void releaseSegment(BusHandle h, GapId gap, Level level,
                        obs::SegmentFreeReason reason);
    void segmentFreed(GapId gap, Level level);

    /** Emit a SegmentFree trace event (no-op when not tracing). */
    void noteSegmentFree(const VirtualBus &bus, GapId gap,
                         Level level,
                         obs::SegmentFreeReason reason);

    /** Eligibility of one hop for a downward move (Figure 7). */
    bool hopMovable(const VirtualBus &bus, std::size_t hop_index)
        const;

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
    const VirtualBus *
    find(BusHandle h) const
    {
        return const_cast<RmbNetwork *>(this)->find(h);
    }

    /** The live bus @p h names; panics if it retired. */
    VirtualBus &busAt(BusHandle h);

    /** Index of @p bus's hop at @p gap (it may be freed already). */
    std::size_t
    hopIndexAt(const VirtualBus &bus, GapId gap) const
    {
        return ringDistance(bus.srcGap(), gap, config_.numNodes);
    }

    /** Assemble a trace event carrying @p bus's identity. */
    obs::TraceEvent busEvent(obs::EventKind kind,
                             const VirtualBus &bus,
                             net::NodeId node, GapId gap = 0,
                             Level level = kNoLevel) const;

    void checkAfterMutation() const;

    RmbConfig config_;
    sim::Random rng_;
    SegmentTable segments_;
    /** Contiguous; never resized after construction (the INC
     *  clock events point into it). */
    std::vector<Inc> incs_;
    std::vector<Pe> pes_;
    /** Every virtual bus, addressed by BusHandle; SegmentTable
     *  occupants, waiter lists, move records and event closures all
     *  hold handles.  No `VirtualBus &` is held across a call that
     *  can inject a bus (releaseSegment, segmentFreed, tryInject,
     *  busFinished): injection may grow the pool and move it. */
    BusPool<VirtualBus> pool_;
    VirtualBusId nextBusId_ = 1;

    /** Blocked buses waiting for a segment per gap, FIFO. */
    std::vector<std::deque<BusHandle>> waiters_;

    std::vector<MulticastRecord> multicasts_;
    std::unordered_map<net::MessageId, MulticastId>
        carrierToMulticast_;

    /**
     * First-sever tick of every message whose virtual bus was cut by
     * a fault or the watchdog and that has not yet been delivered
     * (-> messagesRecovered + recoveryLatency) or permanently failed
     * (-> messagesLost).
     */
    std::unordered_map<net::MessageId, sim::Tick> severedAt_;

    /** MTBF/MTTR fail-repair process (RmbConfig::faultMtbf > 0). */
    std::unique_ptr<FaultSchedule> faults_;

    RmbStats rmbStats_;
};

} // namespace core
} // namespace rmb
