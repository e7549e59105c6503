/**
 * @file
 * ProtocolCore: the RMB protocol state and handlers both engines
 * share, written once.
 *
 * The paper defines one protocol (top-bus injection, Hack/Nack, Fack
 * teardown, retry, make-before-break compaction; sections 2.3-2.5).
 * `RmbNetwork` and `CycleKernelEngine` differ in how they *schedule*
 * it, not in what a step does, so everything that is the same lives
 * here: the bus record (`VirtualBus` in a `BusPool`), the segment
 * store (`kernel::SegmentPlanes`, owners are pool slots), the PEs,
 * the sever/recovery accounting, and the handlers for injection,
 * teardown, segment release, retry, write-off, fault, repair, sever,
 * delivery, the queued-message rescue and the invariant audit.
 *
 * A CRTP base, so no handler pays a virtual call.  A backend `D`
 * derives from `ProtocolCore<D>` and supplies
 *
 *  - its agenda: `scheduleHeaderArrive(bus)`,
 *    `scheduleTeardownStep(bus)` and `scheduleInject(node, delay)`;
 *  - `auditBus(bus)`, its part of the per-bus audit (what a Blocked
 *    bus must satisfy);
 *  - the rest of the flit path and its compaction pass.
 *
 * and may hide any of the default hooks below to add engine-specific
 * work at that protocol moment.  The core always calls the hooks,
 * and the handlers a backend may wrap (`tryInject`, `segmentFreed`),
 * through `derived()`.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "obs/trace.hh"
#include "rmb/bus_pool.hh"
#include "rmb/compaction_rules.hh"
#include "rmb/config.hh"
#include "rmb/engine.hh"
#include "rmb/fault.hh"
#include "rmb/kernel/bitplane.hh"
#include "rmb/pe.hh"
#include "rmb/status_register.hh"
#include "rmb/types.hh"
#include "rmb/virtual_bus.hh"
#include "sim/random.hh"

namespace rmb {
namespace core {

template <typename Derived>
class ProtocolCore : public Engine
{
  public:
    net::MessageId send(net::NodeId src, net::NodeId dst,
                        std::uint32_t payload_flits) override;

    const RmbConfig &config() const override { return config_; }
    const RmbStats &rmbStats() const override { return rmbStats_; }

    /** The N x k segment store (owners are bus-pool slots). */
    const kernel::SegmentPlanes &segments() const { return segs_; }

    // --- Engine segment census ---
    bool
    segmentOccupied(GapId gap, Level level) const override
    {
        return segs_.occupied(gap, level);
    }
    bool
    segmentFaulty(GapId gap, Level level) const override
    {
        return segs_.faulted(gap, level);
    }
    std::uint32_t
    faultySegments() const override
    {
        return segs_.faultyCount();
    }
    std::uint64_t
    occupiedSegments() const override
    {
        return segs_.occupiedCount();
    }
    double
    segmentUtilization(GapId gap, Level level,
                       sim::Tick now) const override
    {
        return segs_.utilization(gap, level, now);
    }
    double
    averageSegmentUtilization(sim::Tick now) const override
    {
        return segs_.averageUtilization(now);
    }

    /**
     * Fault injection (docs/FAULTS.md).  With transientFaults an
     * occupied segment severs its bus (or cancels / completes a
     * half-made move); without it, faulting an occupied segment is a
     * hard error.  Faulting a gap's top segment disables injection
     * at that node; faulting all k levels of a gap cuts the ring.
     */
    void failSegment(GapId gap, Level level) override;

    /** Inverse of failSegment; wakes waiters once the segment is
     *  free (a severed occupant may still be releasing it). */
    void repairSegment(GapId gap, Level level) override;

    /** Every structural invariant both engines keep, plus the
     *  backend's auditBus(). */
    void auditInvariants() const override;

    /**
     * Rescue a message the supervisor saw make no progress: the
     * backend's rescueCarrier() decides for a bus-carried one; a
     * queued message is written off once permanent damage has cut
     * its route.
     */
    bool rescueStalled(net::MessageId id) override;

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
     * Test probe: move the bus pool to fresh storage on every bus
     * allocation and poison the old (BusPool::setRelocateOnAlloc).
     */
    void setTestRelocatePool(bool on) { pool_.setRelocateOnAlloc(on); }

  protected:
    /** @p config must already be validated for this backend. */
    ProtocolCore(sim::Simulator &simulator, std::string name,
                 const RmbConfig &config)
        : Engine(simulator, std::move(name), config.numNodes),
          config_(config), rng_(config.seed),
          segs_(config.numNodes, config.numBuses),
          pes_(config.numNodes), rmbStats_(metrics())
    {}

    Derived &derived() { return static_cast<Derived &>(*this); }
    const Derived &
    derived() const
    {
        return static_cast<const Derived &>(*this);
    }

    /**
     * Start the MTBF/MTTR fault process (RmbConfig::faultMtbf > 0).
     * Backends call it last in their constructor: it draws from its
     * own split substream so enabling it never perturbs protocol
     * randomness for a given seed, but its first event must follow
     * the backend's own construction-time events.
     */
    void
    startFaults()
    {
        if (config_.faultMtbf == 0)
            return;
        faults_ = std::make_unique<FaultSchedule>(
            *this, sim::Random(config_.seed).split(kFaultStream));
        faults_->start();
    }

    // --- handlers written once ---

    /** Inject the head of @p node's send queue onto its top
     *  segment, if the port, backoff and segment allow. */
    void tryInject(net::NodeId node);
    /** Begin a Fack/Nack/Fault teardown walk from the head. */
    void startTeardown(VirtualBus &bus, BusState kind);
    /** The Fack/Nack crossed the head-most remaining hop. */
    void teardownStep(std::uint32_t slot);
    /** Retire the bus, requeue or write off its message, free the
     *  source-gap segments. */
    void busFinished(std::uint32_t slot, const Hop &last_hop);
    /** Back @p node off before re-injecting @p msg. */
    void scheduleRetry(net::NodeId node, net::MessageId msg);
    /**
     * Free one segment of the bus in @p slot and dispatch wakeups.
     * The wakeup may inject a bus and grow pool_, so callers look
     * the bus up again afterwards.
     */
    void releaseSegment(std::uint32_t slot, GapId gap, Level level,
                        obs::SegmentFreeReason reason);
    /** A segment became claimable: a freed top segment lets the
     *  local PE inject.  A backend may add its own wakeups. */
    void segmentFreed(GapId gap, Level level);
    /** The final flit landed: deliver and start the Fack. */
    void finalFlitArrive(VirtualBus &bus);
    void severOccupant(GapId gap, Level level, std::uint32_t slot);
    void severBus(VirtualBus &bus, std::uint64_t reason);
    /** Dead-letter @p m (severedAt_ lost accounting included). */
    void writeOff(net::Message &m, obs::DeadLetterReason reason);

    // --- hooks (defaults; a backend hides what it needs) ---

    /** After a protocol mutation outside a backend's own audit
     *  point. */
    void afterMutation() {}
    /** A bus was just injected. */
    void onInjected() {}
    /** A fault or repair changed the grid. */
    void faultsChanged() {}
    /** Teardown started: invalidate the bus's pending steps beyond
     *  its epoch bump. */
    void onTeardownStart(VirtualBus &) {}
    /** A Blocked bus is being severed: drop its wait. */
    void leaveWaiters(VirtualBus &) {}
    /** A message was delivered (multicast bookkeeping). */
    void finishMulticast(net::MessageId) {}
    /** A silent bus carries the stalled message.  The default
     *  exempts it: an agenda that cannot lose a step needs no
     *  rescue. */
    bool rescueCarrier(VirtualBus &) { return false; }
    /** Gaps a bus must span to reach its destination. */
    std::uint32_t
    pathLength(const VirtualBus &bus) const
    {
        return bus.pathLength(config_.numNodes);
    }

    // --- helpers ---

    Level topLevel() const { return static_cast<Level>(config_.numBuses) - 1; }

    /** A free slot; a live bus holds a segment, so the pool never
     *  needs more than N*k. */
    std::uint32_t
    allocSlot()
    {
        rmb_assert(pool_.hasFree() ||
                       pool_.size() < std::uint64_t{config_.numNodes} *
                                          config_.numBuses,
                   "bus pool would grow past N*k buses: a live bus"
                   " holds no segment");
        return pool_.alloc();
    }

    /** Index of @p bus's hop at @p gap (it may be freed already). */
    std::size_t
    hopIndexAt(const VirtualBus &bus, GapId gap) const
    {
        return ringDistance(bus.srcGap(), gap, config_.numNodes);
    }

    /** Assemble a trace event carrying @p bus's identity. */
    obs::TraceEvent
    busEvent(obs::EventKind kind, const VirtualBus &bus,
             net::NodeId node, GapId gap = 0,
             Level level = kNoLevel) const
    {
        obs::TraceEvent e;
        e.kind = kind;
        e.at = simulator().now();
        e.message = bus.message;
        e.bus = bus.id;
        e.node = node;
        e.gap = gap;
        e.level = level;
        return e;
    }

    /** Emit a SegmentFree trace event (no-op when not tracing). */
    void
    noteSegmentFree(const VirtualBus &bus, GapId gap, Level level,
                    obs::SegmentFreeReason reason)
    {
        if (!tracing())
            return;
        obs::TraceEvent e = busEvent(obs::EventKind::SegmentFree, bus,
                                     gap, gap, level);
        e.a = reason;
        emitTrace(e);
    }

    /** Audit now if RmbConfig::verify is Full. */
    void
    checkAfterMutation() const
    {
        if (config_.verify == VerifyLevel::Full)
            auditInvariants();
    }

    RmbConfig config_;
    /** RNG stream (backoff jitter, cycle periods). */
    sim::Random rng_;
    kernel::SegmentPlanes segs_;
    std::vector<Pe> pes_;
    /**
     * Every virtual bus, addressed by slot.  Growth moves every bus,
     * so no `VirtualBus &` is held across a call that can inject a
     * bus (releaseSegment, segmentFreed, tryInject, busFinished).
     */
    BusPool<VirtualBus> pool_;
    VirtualBusId nextBusId_ = 1;

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

template <typename Derived>
net::MessageId
ProtocolCore<Derived>::send(net::NodeId src, net::NodeId dst,
                            std::uint32_t payload_flits)
{
    net::Message &m = createMessage(src, dst, payload_flits);
    pes_[src].sendQueue.push_back(m.id);
    const net::MessageId id = m.id;
    derived().scheduleInject(src, 0);
    superviseActivity();
    return id;
}

template <typename Derived>
const VirtualBus *
ProtocolCore<Derived>::bus(VirtualBusId id) const
{
    rmb_assert(id != kNoBus && id < nextBusId_,
               "virtual bus id ", id, " was never allocated",
               " (ids run 1..", nextBusId_ - 1, ")");
    for (const VirtualBus &b : pool_.slots())
        if (b.live && b.id == id)
            return &b;
    return nullptr;
}

template <typename Derived>
std::vector<VirtualBusId>
ProtocolCore<Derived>::liveBusIds() const
{
    std::vector<VirtualBusId> ids;
    for (const VirtualBus &b : pool_.slots())
        if (b.live)
            ids.push_back(b.id);
    std::sort(ids.begin(), ids.end());
    return ids;
}

template <typename Derived>
void
ProtocolCore<Derived>::tryInject(net::NodeId node)
{
    Pe &pe = pes_[node];
    // Write off queued traffic that permanent damage has made
    // undeliverable before spending ports or backoff on it.
    while (!pe.sendQueue.empty()) {
        net::Message &m = messageRef(pe.sendQueue.front());
        if (!routeDead(m.src, m.dst))
            break;
        pe.sendQueue.pop_front();
        writeOff(m, obs::kDeadUnreachable);
    }
    if (!pe.sendPortFree(config_.sendPorts) ||
        pe.sendQueue.empty()) {
        return;
    }
    if (simulator().now() < pe.backoffUntil)
        return; // the retry's injection is already scheduled

    // Section 2.3: a new request may only be inserted at the top
    // output port; if it is busy the header flit stays buffered.
    const Level top = topLevel();
    const GapId gap = node;
    if (!segs_.isFree(gap, top))
        return;

    const net::MessageId mid = pe.sendQueue.front();
    pe.sendQueue.pop_front();
    pe.activeSends.push_back(mid);

    net::Message &m = messageRef(mid);
    if (m.state == net::MessageState::Queued)
        noteFirstAttempt(m);
    else
        noteRetry(m);

    const std::uint32_t slot = allocSlot();
    VirtualBus &bus = pool_[slot];
    {
        // A fresh life: reset every field but the generation and
        // the hop capacity.
        VirtualBus fresh;
        fresh.hops = std::move(bus.hops);
        fresh.gen = bus.gen;
        bus = std::move(fresh);
    }
    bus.id = nextBusId_++;
    bus.slot = slot;
    bus.live = true;
    bus.message = mid;
    bus.src = m.src;
    bus.dst = m.dst;
    bus.state = BusState::Advancing;
    bus.injectedAt = simulator().now();
    bus.headNode = ringNext(node, config_.numNodes);

    segs_.occupy(gap, top, slot, simulator().now());
    bus.hops.push_back(Hop{gap, top, kNoLevel, 0});
    rmbStats_.liveBuses.adjust(simulator().now(), +1);
    if (tracing())
        emitTrace(busEvent(obs::EventKind::HeaderHop, bus, node, gap,
                           top));

    derived().scheduleHeaderArrive(bus);
    derived().onInjected();
    derived().afterMutation();
}

template <typename Derived>
void
ProtocolCore<Derived>::finalFlitArrive(VirtualBus &bus)
{
    rmb_assert(bus.state == BusState::Streaming,
               "FF arrived on a non-streaming bus");
    noteDelivered(messageRef(bus.message),
                  static_cast<std::uint32_t>(bus.hops.size()));
    noteCircuit(-1);
    pes_[bus.dst].releaseReceive(bus.message);
    derived().finishMulticast(bus.message);

    // Delivered despite at least one earlier sever: the recovery
    // path (teardown -> requeue -> retry) closed the loop.
    auto sev = severedAt_.find(bus.message);
    if (sev != severedAt_.end()) {
        const sim::Tick latency = simulator().now() - sev->second;
        ++rmbStats_.messagesRecovered;
        rmbStats_.recoveryLatency.add(static_cast<double>(latency));
        rmbStats_.recoveryLatencyHist.add(latency);
        if (tracing()) {
            obs::TraceEvent e = busEvent(
                obs::EventKind::MessageRecovered, bus, bus.dst);
            e.a = latency;
            emitTrace(e);
        }
        severedAt_.erase(sev);
    }
    startTeardown(bus, BusState::FackTeardown);
}

template <typename Derived>
void
ProtocolCore<Derived>::startTeardown(VirtualBus &bus, BusState kind)
{
    rmb_assert(isTeardown(kind), "bad teardown kind");
    bus.state = kind;
    ++bus.epoch;
    derived().onTeardownStart(bus);
    if (tracing()) {
        obs::TraceEvent e = busEvent(obs::EventKind::Teardown, bus,
                                     bus.headNode);
        e.a = kind == BusState::FackTeardown   ? obs::kTeardownFack
              : kind == BusState::NackTeardown ? obs::kTeardownNack
                                               : obs::kTeardownFault;
        emitTrace(e);
    }
    derived().scheduleTeardownStep(bus);
}

template <typename Derived>
void
ProtocolCore<Derived>::teardownStep(std::uint32_t slot)
{
    VirtualBus &bus = pool_[slot];
    rmb_assert(isTeardown(bus.state), "teardown step on a live bus");
    rmb_assert(!bus.hops.empty(), "teardown of an empty bus");

    // The Fack/Nack just crossed the head-most remaining hop; the
    // INCs on both sides free its port(s).
    const Hop hop = bus.hops.back();
    bus.hops.pop_back();
    ++bus.hopsFreed;
    ++bus.epoch;

    if (!bus.hops.empty()) {
        // `bus` dangles from here: a release may inject a bus.
        if (hop.inMove())
            releaseSegment(slot, hop.gap, hop.dualLevel,
                           obs::kFreeTeardown);
        releaseSegment(slot, hop.gap, hop.level, obs::kFreeTeardown);
        derived().scheduleTeardownStep(pool_[slot]);
        derived().afterMutation();
        return;
    }
    busFinished(slot, hop);
}

template <typename Derived>
void
ProtocolCore<Derived>::busFinished(std::uint32_t slot,
                                   const Hop &last_hop)
{
    // Retire the bus *before* releasing its final (source-gap)
    // segments: the release wakeups (blocked headers, pending
    // injections) must never observe a live bus with no hops.
    VirtualBus &bus = pool_[slot];
    const VirtualBusId bus_id = bus.id;
    const net::NodeId src = bus.src;
    const net::MessageId mid = bus.message;
    const BusState kind = bus.state;
    const sim::Tick injected_at = bus.injectedAt;
    const bool top_released = bus.topReleased;
    const sim::Tick now = simulator().now();
    rmb_assert(last_hop.gap == bus.srcGap(),
               "teardown must end at the source gap");
    rmbStats_.liveBuses.adjust(now, -1);
    pool_.retire(slot);

    Pe &pe = pes_[src];
    pe.releaseSend(mid);

    // Retry bookkeeping precedes the wakeups so the backoff window
    // is in place when segmentFreed pokes the source PE.  A
    // fault-severed bus rides the same requeue path as a Nacked one.
    if (kind == BusState::NackTeardown ||
        kind == BusState::FaultTeardown) {
        net::Message &m = messageRef(mid);
        if (config_.maxRetries > 0 &&
            m.retries >= config_.maxRetries) {
            writeOff(m, obs::kDeadRetriesExhausted);
        } else {
            pe.sendQueue.push_front(mid);
            scheduleRetry(src, mid);
        }
    }

    if (!top_released && last_hop.level == topLevel()) {
        rmbStats_.topReleaseLatency.add(
            static_cast<double>(now - injected_at));
    }
    // The bus record is already gone, so the SegmentFree events are
    // assembled from the captured ids rather than via busEvent().
    const auto lastFree = [&](GapId gap, Level level) {
        segs_.release(gap, level, slot, now);
        if (tracing()) {
            obs::TraceEvent e;
            e.kind = obs::EventKind::SegmentFree;
            e.at = now;
            e.message = mid;
            e.bus = bus_id;
            e.node = gap;
            e.gap = gap;
            e.level = level;
            e.a = obs::kFreeTeardown;
            emitTrace(e);
        }
        if (!segs_.faulted(gap, level))
            derived().segmentFreed(gap, level);
    };
    if (last_hop.inMove())
        lastFree(last_hop.gap, last_hop.dualLevel);
    lastFree(last_hop.gap, last_hop.level);
    derived().tryInject(src);
    derived().afterMutation();
}

template <typename Derived>
void
ProtocolCore<Derived>::scheduleRetry(net::NodeId node,
                                     net::MessageId msg)
{
    const sim::Tick backoff =
        retryBackoff(rng_, config_, message(msg).retries);
    pes_[node].backoffUntil = simulator().now() + backoff;
    if (tracing()) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::Backoff;
        e.at = simulator().now();
        e.message = msg;
        e.node = node;
        e.a = backoff;
        emitTrace(e);
    }
    derived().scheduleInject(node, backoff);
}

template <typename Derived>
void
ProtocolCore<Derived>::releaseSegment(std::uint32_t slot, GapId gap,
                                      Level level,
                                      obs::SegmentFreeReason reason)
{
    VirtualBus &bus = pool_[slot];
    segs_.release(gap, level, slot, simulator().now());
    noteSegmentFree(bus, gap, level, reason);
    if (!bus.topReleased && gap == bus.srcGap() && level == topLevel()) {
        bus.topReleased = true;
        rmbStats_.topReleaseLatency.add(
            static_cast<double>(simulator().now() - bus.injectedAt));
    }
    // A faulted segment is released (the severed owner lets go of
    // it) but not *freed*: nobody may claim it until repair.  Last:
    // the wakeup may grow pool_ and move `bus`.
    if (!segs_.faulted(gap, level))
        derived().segmentFreed(gap, level);
}

template <typename Derived>
void
ProtocolCore<Derived>::segmentFreed(GapId gap, Level level)
{
    if (level == topLevel())
        derived().tryInject(gap);
}

template <typename Derived>
void
ProtocolCore<Derived>::failSegment(GapId gap, Level level)
{
    const std::uint32_t occupant = segs_.ownerSlot(gap, level);
    const VirtualBusId occupant_id =
        occupant == kernel::kNoSlot ? kNoBus : pool_[occupant].id;
    if (occupant != kernel::kNoSlot && !config_.transientFaults) {
        panic("failSegment(", gap, ",", level, "): can only fault a"
              " free segment while transient faults are disabled,"
              " and level ", level, " of gap ", gap,
              " is held by virtual bus ", occupant_id,
              "; set RmbConfig::transientFaults to sever live"
              " buses");
    }
    segs_.markFaulty(gap, level, simulator().now());
    ++rmbStats_.faultsInjected;
    if (tracing()) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::SegmentFail;
        e.at = simulator().now();
        e.node = gap;
        e.gap = gap;
        e.level = level;
        e.a = occupant_id;
        emitTrace(e);
    }
    if (occupant != kernel::kNoSlot)
        severOccupant(gap, level, occupant);
    derived().faultsChanged();
    checkAfterMutation();
}

template <typename Derived>
void
ProtocolCore<Derived>::repairSegment(GapId gap, Level level)
{
    segs_.clearFault(gap, level, simulator().now());
    ++rmbStats_.faultsRepaired;
    if (tracing()) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::SegmentRepair;
        e.at = simulator().now();
        e.node = gap;
        e.gap = gap;
        e.level = level;
        emitTrace(e);
    }
    // A severed occupant may still be walking its teardown across
    // this segment; then the wakeups happen at its release instead.
    if (!segs_.occupied(gap, level))
        derived().segmentFreed(gap, level);
    derived().faultsChanged();
    checkAfterMutation();
}

template <typename Derived>
void
ProtocolCore<Derived>::severOccupant(GapId gap, Level level,
                                     std::uint32_t slot)
{
    VirtualBus &bus = pool_[slot];
    if (isTeardown(bus.state))
        return; // the walking Fack/Nack will release it anyway

    const std::size_t idx = hopIndexAt(bus, gap);
    rmb_assert(idx < bus.hops.size(),
               "faulted segment held by a hop out of range");
    Hop &hop = bus.hops[idx];
    rmb_assert(hop.gap == gap, "hop/gap bookkeeping mismatch");

    if (hop.inMove() && level == hop.dualLevel) {
        // The fault hit the make-before-break *target* before the
        // break step: cancel the move and stay on the (live) old
        // level.  The pending break record goes stale via inMove().
        segs_.release(gap, level, slot, simulator().now());
        noteSegmentFree(bus, gap, level, obs::kFreeMoveCancel);
        hop.dualLevel = kNoLevel;
        return;
    }
    if (hop.inMove() && level == hop.level) {
        // The fault hit the *old* level mid-move: make-before-break
        // means the lower segment already carries the signal, so
        // complete the move early instead of severing.
        segs_.release(gap, level, slot, simulator().now());
        noteSegmentFree(bus, gap, level, obs::kFreeMoveCancel);
        hop.level = hop.dualLevel;
        hop.dualLevel = kNoLevel;
        ++rmbStats_.compactionMoves;
        return;
    }
    rmb_assert(level == hop.level,
               "faulted segment not part of its occupant's hop");
    severBus(bus, obs::kSeverFault);
}

template <typename Derived>
void
ProtocolCore<Derived>::severBus(VirtualBus &bus, std::uint64_t reason)
{
    rmb_assert(!isTeardown(bus.state),
               "sever of a bus already tearing down");
    const sim::Tick now = simulator().now();

    switch (bus.state) {
      case BusState::Blocked:
        derived().leaveWaiters(bus);
        break;
      case BusState::AwaitHack:
        pes_[bus.dst].releaseReceive(bus.message);
        break;
      case BusState::Streaming:
        pes_[bus.dst].releaseReceive(bus.message);
        noteCircuit(-1);
        // The re-injected header starts a fresh circuit; in-flight
        // flit/Dack/FF steps go stale by the backend's rule.
        messageRef(bus.message).state = net::MessageState::Setup;
        break;
      default:
        break; // Advancing: the in-flight header step goes stale
    }

    ++rmbStats_.busesSevered;
    severedAt_.emplace(bus.message, now); // keeps the first sever
    if (tracing()) {
        obs::TraceEvent e = busEvent(obs::EventKind::BusSevered, bus,
                                     bus.headNode);
        e.a = reason;
        emitTrace(e);
    }
    startTeardown(bus, BusState::FaultTeardown);
}

template <typename Derived>
void
ProtocolCore<Derived>::writeOff(net::Message &m,
                                obs::DeadLetterReason reason)
{
    auto sev = severedAt_.find(m.id);
    if (sev != severedAt_.end()) {
        ++rmbStats_.messagesLost;
        severedAt_.erase(sev);
    }
    deadLetterMessage(m, rmbStats_, reason);
}

template <typename Derived>
bool
ProtocolCore<Derived>::rescueStalled(net::MessageId id)
{
    net::Message &m = messageRef(id);
    if (m.state == net::MessageState::Delivered ||
        m.state == net::MessageState::Failed) {
        return false;
    }
    // At most one bus carries the message.
    for (std::uint32_t slot = 0; slot < pool_.size(); ++slot) {
        if (pool_[slot].live && pool_[slot].message == id)
            return derived().rescueCarrier(pool_[slot]);
    }

    // No bus: the message waits in its source queue (or its backoff).
    // A live queue is not a stall - the only unrecoverable silence
    // is a route that permanent damage has cut.
    if (!routeDead(m.src, m.dst))
        return false;
    Pe &pe = pes_[m.src];
    auto it = std::find(pe.sendQueue.begin(), pe.sendQueue.end(), id);
    if (it == pe.sendQueue.end())
        return false; // between teardown and requeue; look again
    pe.sendQueue.erase(it);
    ++rmbStats_.watchdogFires;
    if (tracing()) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::WatchdogFire;
        e.at = simulator().now();
        e.message = id;
        e.node = m.src;
        emitTrace(e);
    }
    writeOff(m, obs::kDeadUnreachable);
    derived().afterMutation();
    return true;
}

template <typename Derived>
std::uint8_t
ProtocolCore<Derived>::outputStatus(net::NodeId node, Level level,
                                    bool *pe_driven) const
{
    if (pe_driven)
        *pe_driven = false;
    const std::uint32_t slot = segs_.ownerSlot(node, level);
    if (slot == kernel::kNoSlot)
        return 0b000;
    const VirtualBus &b = pool_[slot];
    rmb_assert(b.live, "segment held by a dead bus");
    const std::size_t idx = hopIndexAt(b, node);
    rmb_assert(idx < b.hops.size(), "occupant hop out of range");

    if (idx == 0) {
        // Source hop: the PE write port drives this output; Table 1
        // does not model PE sources.
        if (pe_driven)
            *pe_driven = true;
        return 0b000;
    }

    const Hop &prev = b.hops[idx - 1];
    StatusRegister reg;
    reg.connect(sourceDirOf(prev.level, level));
    // Input mid-move: both the old and the new input level drive
    // this output (the documented 011/110 dual codes).
    if (prev.inMove())
        reg.connect(sourceDirOf(prev.dualLevel, level));
    return reg.bits();
}

template <typename Derived>
void
ProtocolCore<Derived>::auditInvariants() const
{
    const std::uint32_t n = config_.numNodes;
    const auto k = static_cast<Level>(config_.numBuses);

    // Every hop's claim must match the grid, and vice versa.
    std::uint64_t claimed = 0;
    std::int64_t live_seen = 0;
    for (std::uint32_t slot = 0; slot < pool_.size(); ++slot) {
        const VirtualBus &bus = pool_[slot];
        if (!bus.live)
            continue;
        ++live_seen;
        const VirtualBusId id = bus.id;
        const std::uint32_t path = derived().pathLength(bus);
        rmb_assert(!bus.hops.empty(), "live bus ", id,
                   " with no hops");
        rmb_assert(bus.hops.size() + bus.hopsFreed <= path, "bus ", id,
                   " longer than its path");
        for (std::size_t i = 0; i < bus.hops.size(); ++i) {
            const Hop &hop = bus.hops[i];
            rmb_assert(hop.gap == (bus.srcGap() + i) % n, "bus ", id,
                       " hop ", i, " at wrong gap");
            rmb_assert(hop.level >= 0 && hop.level < k, "bus ", id,
                       " level out of range");
            rmb_assert(segs_.ownerSlot(hop.gap, hop.level) == slot,
                       "grid does not record bus ", id, " at (",
                       hop.gap, ",", hop.level, ")");
            ++claimed;
            if (hop.inMove()) {
                rmb_assert(hop.dualLevel == hop.level - 1,
                           "moves must go exactly one level down");
                rmb_assert(segs_.ownerSlot(hop.gap, hop.dualLevel) ==
                               slot,
                           "dual segment not recorded");
                ++claimed;
            }
            if (i == 0)
                continue;
            const Hop &prev = bus.hops[i - 1];
            rmb_assert(!(prev.inMove() && hop.inMove()),
                       "adjacent hops of bus ", id,
                       " moving concurrently");
            // Electrical connectivity: every live level pair of
            // adjacent hops must be within one level.
            for (Level a : {prev.level, prev.dualLevel}) {
                if (a == kNoLevel)
                    continue;
                for (Level b : {hop.level, hop.dualLevel}) {
                    if (b == kNoLevel)
                        continue;
                    rmb_assert(a - b <= 1 && b - a <= 1, "bus ", id,
                               " kinked at gap ", hop.gap,
                               ": levels ", a, " -> ", b);
                }
            }
        }
        // Circuit-complete states must span the whole path.
        if (bus.state == BusState::AwaitHack ||
            bus.state == BusState::Streaming) {
            rmb_assert(bus.hops.size() == path, "established bus ",
                       id, " does not span its path");
        }
        derived().auditBus(bus);
    }
    rmb_assert(live_seen == rmbStats_.liveBuses.current(), "pool shows ",
               live_seen, " live buses but the census counts ",
               rmbStats_.liveBuses.current());
    rmb_assert(claimed == segs_.occupiedCount(), "grid claims ",
               segs_.occupiedCount(), " segments but buses own ",
               claimed, " (plus ", segs_.faultyCount(), " faulted)");

    // Per segment: the occupancy plane agrees with the owner array;
    // the fault count adds up, a faulted segment never reads as
    // free, and any bus still holding one must be tearing down
    // (failSegment severs the occupant synchronously; only the
    // walking teardown may linger); and the derived Table-1 code is
    // legal (outputStatus panics internally if not).
    std::uint32_t faulted_seen = 0;
    for (GapId g = 0; g < n; ++g) {
        for (Level l = 0; l < k; ++l) {
            (void)outputStatus(g, l);
            const std::uint32_t slot = segs_.ownerSlot(g, l);
            rmb_assert(segs_.occupied(g, l) == (slot != kernel::kNoSlot),
                       "occupancy plane out of sync with the owner"
                       " grid at (", g, ",", l, ")");
            if (!segs_.faulted(g, l))
                continue;
            ++faulted_seen;
            rmb_assert(!segs_.isFree(g, l), "faulted segment (", g,
                       ",", l, ") reads as free");
            if (slot == kernel::kNoSlot)
                continue;
            const VirtualBus &owner = pool_[slot];
            rmb_assert(owner.live, "faulted segment (", g, ",", l,
                       ") held by a dead bus (slot ", slot, ")");
            rmb_assert(isTeardown(owner.state), "bus ", owner.id,
                       " holds faulted segment (", g, ",", l,
                       ") but is not tearing down (state ",
                       static_cast<int>(owner.state), ")");
        }
    }
    rmb_assert(faulted_seen == segs_.faultyCount(), "fault plane shows ",
               faulted_seen, " faulted segments but the census counts ",
               segs_.faultyCount());
}

} // namespace core
} // namespace rmb
