#include "rmb/network.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/prof.hh"
#include "rmb/compaction_rules.hh"

namespace rmb {
namespace core {

RmbNetwork::RmbNetwork(sim::Simulator &simulator,
                       const RmbConfig &config)
    : ProtocolCore(simulator, "RMB(ring)",
                   validatedEngineConfig(config)),
      waiters_(config.numNodes)
{
    if (config_.numNodes % 2 != 0) {
        warn("odd node count: the odd/even INC marking of section"
             " 2.4 is imperfect on an odd ring (two adjacent INCs"
             " share a parity); the DES serialization keeps the"
             " protocol correct regardless");
    }

    incs_.reserve(config_.numNodes);
    for (std::uint32_t i = 0; i < config_.numNodes; ++i) {
        const sim::Tick period = rng_.uniformRange(
            config_.cyclePeriodMin, config_.cyclePeriodMax);
        incs_.emplace_back(i, period);
    }
    for (Inc &inc : incs_)
        inc.start(*this);
    startFaults();
}

RmbNetwork::~RmbNetwork() = default;

VirtualBus &
RmbNetwork::busAt(BusHandle h)
{
    VirtualBus *bus = find(h);
    rmb_assert(bus, "no live bus in slot ", handleSlot(h),
               " generation ", handleGen(h));
    return *bus;
}

void
RmbNetwork::scheduleHeaderArrive(const VirtualBus &bus)
{
    simulator().schedule(config_.headerHopDelay,
                         [this, h = bus.handle()] { headerArrive(h); });
}

void
RmbNetwork::scheduleTeardownStep(const VirtualBus &bus)
{
    simulator().schedule(config_.ackHopDelay, [this, h = bus.handle()] {
        teardownStep(busAt(h).slot);
    });
}

void
RmbNetwork::scheduleInject(net::NodeId node, sim::Tick delay)
{
    simulator().schedule(delay, [this, node] { tryInject(node); });
}

MulticastId
RmbNetwork::multicast(net::NodeId src,
                      std::vector<net::NodeId> members,
                      std::uint32_t payload_flits)
{
    rmb_assert(!members.empty(), "multicast needs members");
    // The carrier's destination is the farthest member clockwise;
    // every other member taps the virtual bus as flits pass it.
    net::NodeId farthest = members.front();
    std::uint32_t max_dist = 0;
    for (net::NodeId member : members) {
        rmb_assert(member < config_.numNodes, "member out of range");
        rmb_assert(member != src, "the source cannot be a member");
        const std::uint32_t d =
            (member + config_.numNodes - src) % config_.numNodes;
        if (d > max_dist) {
            max_dist = d;
            farthest = member;
        }
    }
    const net::MessageId carrier =
        send(src, farthest, payload_flits);

    MulticastRecord record;
    record.id = multicasts_.size() + 1;
    record.carrier = carrier;
    record.src = src;
    record.members = std::move(members);
    record.deliveredAt.assign(record.members.size(), 0);
    multicasts_.push_back(std::move(record));
    carrierToMulticast_[carrier] = multicasts_.back().id;
    return multicasts_.back().id;
}

MulticastId
RmbNetwork::broadcast(net::NodeId src, std::uint32_t payload_flits)
{
    std::vector<net::NodeId> members;
    members.reserve(config_.numNodes - 1);
    for (net::NodeId i = 1; i < config_.numNodes; ++i)
        members.push_back(
            static_cast<net::NodeId>((src + i) % config_.numNodes));
    return multicast(src, std::move(members), payload_flits);
}

const MulticastRecord &
RmbNetwork::multicastRecord(MulticastId id) const
{
    rmb_assert(id != 0 && id <= multicasts_.size(),
               "unknown multicast id ", id, " (valid ids are 1..",
               multicasts_.size(), ")");
    return multicasts_[id - 1];
}

void
RmbNetwork::finishMulticast(net::MessageId carrier)
{
    auto it = carrierToMulticast_.find(carrier);
    if (it == carrierToMulticast_.end())
        return;
    MulticastRecord &record = multicasts_[it->second - 1];
    const net::Message &m = message(carrier);
    // Member j saw the last payload flit when the final flit passed
    // it: established + (payload + FF + distance) * flitDelay.
    for (std::size_t i = 0; i < record.members.size(); ++i) {
        const std::uint32_t d =
            (record.members[i] + config_.numNodes - record.src) %
            config_.numNodes;
        record.deliveredAt[i] =
            m.established +
            (static_cast<sim::Tick>(m.payloadFlits) + 1 + d) *
                config_.flitDelay;
        rmbStats_.multicastMemberLatency.add(static_cast<double>(
            record.deliveredAt[i] - m.created));
    }
    record.complete = true;
    ++rmbStats_.multicasts;
}

void
RmbNetwork::tryInject(net::NodeId node)
{
    RMB_PROF_SCOPE_SAMPLED("event.inject");
    ProtocolCore::tryInject(node);
}

void
RmbNetwork::headerArrive(BusHandle h)
{
    // A fault or watchdog sever may beat an in-flight header event:
    // the bus is then gone (short teardown) or in FaultTeardown.
    // Any other state mismatch is still a protocol bug.
    VirtualBus *found = findUnsevered(h);
    if (!found)
        return;
    VirtualBus &bus = *found;
    rmb_assert(bus.state == BusState::Advancing,
               "header arrival on a non-advancing bus");
    const net::NodeId here = bus.headNode;
    if (here == bus.dst) {
        Pe &pe = pes_[here];
        if (pe.receivePortFree(config_.receivePorts)) {
            acceptAtDestination(bus);
        } else {
            // Destination busy: Nack travels back tearing the
            // virtual bus down; the source retries later.
            noteNack(messageRef(bus.message));
            startTeardown(bus, BusState::NackTeardown);
        }
        return;
    }
    tryAdvance(h);
}

void
RmbNetwork::tryAdvance(BusHandle h)
{
    RMB_PROF_SCOPE_SAMPLED("event.advance");
    VirtualBus &bus = busAt(h);
    rmb_assert(bus.state == BusState::Advancing ||
                   bus.state == BusState::Blocked,
               "tryAdvance on a bus in state ",
               static_cast<int>(bus.state));
    const net::NodeId here = bus.headNode;
    const GapId gap = here;

    // Fault lookahead: prefer output levels from which the *next*
    // gap still has a live onward level.  Without this, eager
    // descent walks straight into a gap whose low levels are all
    // faulted - a deterministic trap (the level-0 header can only
    // reach the dead {0, 1}).  When every free level is a dead end,
    // fall back to the plain choice and let the blocking/abort
    // machinery handle it.
    const GapId next_gap = ringNext(here, config_.numNodes);
    const bool lookahead =
        segs_.faultyCount() > 0 && next_gap != bus.dst;
    const auto dead_end = [&](Level lin) {
        for (Level lout : {lin - 1, lin, lin + 1}) {
            if (lout < 0 ||
                lout >= static_cast<Level>(config_.numBuses))
                continue;
            if (!segs_.faulted(next_gap, lout))
                return false;
        }
        return true;
    };

    Level reachable[3];
    const int count = reachableOutputLevelsInto(
        bus.hops.back(), static_cast<Level>(config_.numBuses),
        config_.headerPolicy, reachable);
    Level chosen = kNoLevel;
    Level fallback = kNoLevel;
    for (int i = 0; i < count; ++i) {
        const Level l = reachable[i];
        if (!segs_.isFree(gap, l))
            continue;
        if (fallback == kNoLevel)
            fallback = l;
        if (lookahead && dead_end(l))
            continue;
        chosen = l;
        break;
    }
    if (chosen == kNoLevel)
        chosen = fallback;

    if (chosen != kNoLevel) {
        if (bus.state == BusState::Blocked) {
            leaveWaiters(bus);
            bus.state = BusState::Advancing;
            if (tracing())
                emitTrace(busEvent(obs::EventKind::Unblock, bus,
                                   here, gap));
        }
        segs_.occupy(gap, chosen, bus.slot, simulator().now());
        bus.hops.push_back(Hop{gap, chosen, kNoLevel, 0});
        bus.headNode = next_gap;
        ++bus.epoch;
        if (tracing())
            emitTrace(busEvent(obs::EventKind::HeaderHop, bus, here,
                               gap, chosen));
        scheduleHeaderArrive(bus);
        checkAfterMutation();
        return;
    }

    // No reachable free segment at this gap.
    if (config_.blocking == BlockingPolicy::NackRetry) {
        ++rmbStats_.blockedAborts;
        if (tracing()) {
            obs::TraceEvent e =
                busEvent(obs::EventKind::Nack, bus, here, gap);
            e.a = obs::kNackNoSegment;
            emitTrace(e);
        }
        startTeardown(bus, BusState::NackTeardown);
        return;
    }
    if (bus.state != BusState::Blocked) {
        bus.state = BusState::Blocked;
        bus.blockedSince = simulator().now();
        ++bus.epoch;
        ++rmbStats_.blockedHeaders;
        if (tracing())
            emitTrace(busEvent(obs::EventKind::Block, bus, here,
                               gap));
        waiters_[gap].push_back(h);
        if (config_.headerTimeout > 0) {
            const sim::Tick since = bus.blockedSince;
            simulator().schedule(config_.headerTimeout,
                                 [this, h, since] {
                                     onHeaderTimeout(h, since);
                                 });
        }
        checkAfterMutation();
    }
}

void
RmbNetwork::onHeaderTimeout(BusHandle h, sim::Tick since)
{
    VirtualBus *found = find(h);
    if (!found)
        return;
    VirtualBus &bus = *found;
    if (bus.state != BusState::Blocked || bus.blockedSince != since)
        return;
    ++rmbStats_.timeoutAborts;
    leaveWaiters(bus);
    if (tracing()) {
        obs::TraceEvent e = busEvent(obs::EventKind::Nack, bus,
                                     bus.headNode, bus.headNode);
        e.a = obs::kNackTimeout;
        emitTrace(e);
    }
    startTeardown(bus, BusState::NackTeardown);
}

void
RmbNetwork::acceptAtDestination(VirtualBus &bus)
{
    Pe &pe = pes_[bus.dst];
    pe.activeReceives.push_back(bus.message);
    bus.state = BusState::AwaitHack;
    ++bus.epoch;
    const auto path =
        static_cast<sim::Tick>(bus.hops.size());
    rmb_assert(bus.hops.size() ==
                   bus.pathLength(config_.numNodes),
               "accepted bus spans ", bus.hops.size(),
               " gaps, expected ",
               bus.pathLength(config_.numNodes));
    const BusHandle h = bus.handle();
    simulator().schedule(path * config_.ackHopDelay,
                         [this, h] { hackArriveAtSource(h); });
}

void
RmbNetwork::hackArriveAtSource(BusHandle h)
{
    VirtualBus *found = findUnsevered(h);
    if (!found)
        return; // severed while the Hack travelled back
    VirtualBus &bus = *found;
    rmb_assert(bus.state == BusState::AwaitHack,
               "Hack arrived on a bus in state ",
               static_cast<int>(bus.state));
    bus.state = BusState::Streaming;
    ++bus.epoch;
    noteEstablished(messageRef(bus.message));
    noteCircuit(+1);

    if (config_.detailedFlits) {
        // Flit-by-flit with Dack window flow control; the first
        // flit leaves one flitDelay after the Hack.
        simulator().schedule(config_.flitDelay,
                             [this, h] { departFlit(h, 0); });
        return;
    }

    // Closed-form pipelined streaming: the source emits payload+FF
    // flits one flitDelay apart; the last (final) flit drains
    // through hops.size() stages.
    const net::Message &m = message(bus.message);
    const auto path = static_cast<sim::Tick>(bus.hops.size());
    const sim::Tick duration =
        (static_cast<sim::Tick>(m.payloadFlits) + 1) *
            config_.flitDelay +
        path * config_.flitDelay;
    simulator().schedule(duration, [this, h] {
        if (VirtualBus *bus = findUnsevered(h))
            finalFlitArrive(*bus); // else severed before it landed
    });
}

void
RmbNetwork::departFlit(BusHandle h, std::uint32_t seq)
{
    VirtualBus *found = findUnsevered(h);
    if (!found)
        return; // severed; the pump died with the bus
    VirtualBus &bus = *found;
    rmb_assert(bus.state == BusState::Streaming,
               "flit departure on a non-streaming bus");
    rmb_assert(seq == bus.flitsSent, "flits must depart in order");
    const net::Message &m = message(bus.message);
    rmb_assert(seq <= m.payloadFlits, "flit sequence overrun");

    ++bus.flitsSent;
    ++bus.epoch;
    bus.lastFlitDepart = simulator().now();
    if (tracing()) {
        obs::TraceEvent e =
            busEvent(obs::EventKind::DataFlit, bus, bus.src);
        e.a = seq;
        emitTrace(e);
    }

    // The circuit is dedicated, so the flit pipelines across the
    // hops at one gap per flitDelay, undisturbed by compaction
    // (flits ride the virtual bus, not a fixed physical level).
    const auto path = static_cast<sim::Tick>(bus.hops.size());
    simulator().schedule(path * config_.flitDelay, [this, h, seq] {
        flitArriveAtDst(h, seq);
    });

    if (seq == m.payloadFlits)
        return; // FF sent; the pump is done.

    // Send the next flit one flitDelay later if the Dack window
    // allows; otherwise stall until a Dack reopens it.
    if (bus.flitsSent - bus.flitsAcked < config_.dackWindow) {
        simulator().schedule(config_.flitDelay, [this, h, seq] {
            departFlit(h, seq + 1);
        });
    } else {
        bus.pumpStalled = true;
    }
}

void
RmbNetwork::flitArriveAtDst(BusHandle h, std::uint32_t seq)
{
    VirtualBus *found = findUnsevered(h);
    if (!found)
        return; // severed; in-flight flits are lost with the bus
    VirtualBus &bus = *found;
    rmb_assert(bus.state == BusState::Streaming,
               "flit arrival on a non-streaming bus");
    // The paper's contiguity guarantee: flits arrive in order and
    // gap-free.
    rmb_assert(seq == bus.flitsAtDst,
               "flit ", seq, " arrived out of order (expected ",
               bus.flitsAtDst, ")");
    rmb_assert(bus.flitsAtDst == 0 ||
                   simulator().now() >=
                       bus.lastFlitArrive + config_.flitDelay,
               "flits bunched closer than the pipeline rate");
    ++bus.flitsAtDst;
    ++bus.epoch;
    bus.lastFlitArrive = simulator().now();

    const net::Message &m = message(bus.message);
    if (seq == m.payloadFlits) {
        finalFlitArrive(bus);
        return;
    }
    // Dack returns along the virtual bus.
    const auto path = static_cast<sim::Tick>(bus.hops.size());
    simulator().schedule(path * config_.ackHopDelay,
                         [this, h] { dackArriveAtSource(h); });
}

void
RmbNetwork::dackArriveAtSource(BusHandle h)
{
    // Gone: torn down (Dacks may trail the FF); severed mid-stream:
    // the trailing Dack is void.
    VirtualBus *found = findUnsevered(h);
    if (!found)
        return;
    VirtualBus &bus = *found;
    ++bus.flitsAcked;
    ++bus.epoch;
    ++rmbStats_.dacks;
    if (tracing()) {
        obs::TraceEvent e =
            busEvent(obs::EventKind::Dack, bus, bus.src);
        e.a = bus.flitsAcked;
        emitTrace(e);
    }
    if (bus.pumpStalled &&
        bus.flitsSent - bus.flitsAcked < config_.dackWindow) {
        bus.pumpStalled = false;
        const sim::Tick next_depart =
            bus.lastFlitDepart + config_.flitDelay;
        const sim::Tick now = simulator().now();
        const sim::Tick delay =
            next_depart > now ? next_depart - now : 0;
        const std::uint32_t seq = bus.flitsSent;
        simulator().schedule(delay,
                             [this, h, seq] { departFlit(h, seq); });
    }
}

void
RmbNetwork::segmentFreed(GapId gap, Level level)
{
    // Wake blocked headers waiting at this gap (FIFO order).  A
    // snapshot is used because tryAdvance edits the deque.
    if (!waiters_[gap].empty()) {
        std::vector<BusHandle> snapshot(waiters_[gap].begin(),
                                        waiters_[gap].end());
        for (BusHandle h : snapshot) {
            const VirtualBus *bus = find(h);
            if (!bus || bus->state != BusState::Blocked)
                continue;
            if (!segs_.isFree(gap, level))
                break; // the freed segment was taken
            tryAdvance(h);
        }
    }
    ProtocolCore::segmentFreed(gap, level);
}

void
RmbNetwork::leaveWaiters(VirtualBus &bus)
{
    rmbStats_.blockedTime.add(
        static_cast<double>(simulator().now() - bus.blockedSince));
    auto &q = waiters_[bus.headNode];
    q.erase(std::remove(q.begin(), q.end(), bus.handle()), q.end());
}

// ----------------------------------------------------------------
// Compaction (called from Inc)
// ----------------------------------------------------------------

void
RmbNetwork::makeEligibleMoves(GapId gap, int parity,
                              std::vector<MoveRecord> &out)
{
    RMB_PROF_SCOPE_SAMPLED("event.compaction_make");
    const std::size_t first = out.size();
    const auto k = static_cast<Level>(config_.numBuses);
    // Levels of the considered parity, from the lowest above 0.
    for (Level l = parity == 0 ? 2 : 1; l < k; l += 2) {
        const std::uint32_t slot = segs_.ownerSlot(gap, l);
        if (slot == kernel::kNoSlot)
            continue;
        VirtualBus &bus = pool_[slot];
        // Locate the hop crossing this gap.
        const std::size_t idx = hopIndexAt(bus, gap);
        if (idx >= bus.hops.size())
            continue; // freed region of a tearing-down bus
        Hop &hop = bus.hops[idx];
        rmb_assert(hop.gap == gap, "hop/gap bookkeeping mismatch");
        if (hop.level != l)
            continue; // l is the dual target of a move in progress
        // Figure 7, via the shared pure rule the model checker also
        // drives (rmb/compaction_rules.hh).
        if (!hopMovableRule(bus, idx, [this](GapId g, Level level) {
                return segs_.isFree(g, level);
            })) {
            continue;
        }
        // Make step: claim the lower segment; both segments carry
        // the signal until the break step.
        segs_.occupy(gap, l - 1, slot, simulator().now());
        hop.dualLevel = l - 1;
        ++hop.moveSeq;
        if (tracing()) {
            obs::TraceEvent e = busEvent(
                obs::EventKind::CompactionMake, bus, gap, gap, l);
            e.a = static_cast<std::uint64_t>(l - 1);
            e.b = hop.moveSeq;
            emitTrace(e);
        }
        out.push_back(MoveRecord{bus.handle(), gap, l, l - 1});
    }
    if (out.size() != first)
        checkAfterMutation();
}

void
RmbNetwork::breakMoves(const std::vector<MoveRecord> &records)
{
    RMB_PROF_SCOPE_SAMPLED("event.compaction_break");
    for (const MoveRecord &r : records) {
        VirtualBus *found = find(r.bus);
        if (!found)
            continue; // torn down since the make step
        VirtualBus &bus = *found;
        const std::size_t idx = hopIndexAt(bus, r.gap);
        if (idx >= bus.hops.size())
            continue; // hop already freed by a travelling ack
        Hop &hop = bus.hops[idx];
        if (!hop.inMove() || hop.dualLevel != r.toLevel ||
            hop.level != r.fromLevel) {
            continue; // stale record
        }
        if (segs_.faulted(r.gap, r.toLevel)) {
            // The target faulted between make and break; the sever
            // path cancels such moves at injection time, but refuse
            // here too so a break can never commit onto a dead
            // segment.
            continue;
        }
        hop.level = r.toLevel;
        hop.dualLevel = kNoLevel;
        ++rmbStats_.compactionMoves;
        if (tracing()) {
            obs::TraceEvent e =
                busEvent(obs::EventKind::CompactionBreak, bus,
                         r.gap, r.gap, r.toLevel);
            e.a = static_cast<std::uint64_t>(r.fromLevel);
            emitTrace(e);
        }
        releaseSegment(bus.slot, r.gap, r.fromLevel,
                       obs::kFreeCompaction);

        // A blocked header whose input hop just moved down may now
        // reach a lower (free) output level.  The release may have
        // moved the pool: look the bus up again.
        const VirtualBus *after = find(r.bus);
        if (after && after->state == BusState::Blocked &&
            idx + 1 == after->hops.size()) {
            tryAdvance(r.bus);
        }
    }
    checkAfterMutation();
}

std::uint64_t
RmbNetwork::progressStamp(net::MessageId id) const
{
    std::uint64_t h = Engine::progressStamp(id);
    const auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 1099511628211ull;
    };
    // Fold in the carrying bus (live or tearing down): every protocol
    // step bumps its epoch, so a frozen stamp means lost events.  At
    // most one bus carries this message.
    for (const VirtualBus &b : pool_.slots()) {
        if (!b.live || b.message != id)
            continue;
        mix(b.id);
        mix(static_cast<std::uint64_t>(b.state));
        mix(b.epoch);
        mix(b.hops.size());
    }
    return h;
}

bool
RmbNetwork::rescueCarrier(VirtualBus &carrier)
{
    // Teardowns are self-driving, and closed-form streaming is one
    // pre-scheduled event that cannot be lost - neither counts as
    // "silent".
    if (isTeardown(carrier.state))
        return false;
    if (carrier.state == BusState::Streaming && !config_.detailedFlits)
        return false;
    ++rmbStats_.watchdogFires;
    if (tracing()) {
        obs::TraceEvent e = busEvent(obs::EventKind::WatchdogFire,
                                     carrier, carrier.src);
        e.a = carrier.epoch;
        emitTrace(e);
    }
    severBus(carrier, obs::kSeverWatchdog);
    checkAfterMutation();
    return true;
}

void
RmbNetwork::noteCycleFlip(std::uint32_t inc_index)
{
    ++rmbStats_.cycleFlips;
    const std::uint64_t mine = incs_[inc_index].cycleCount();
    if (tracing()) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::CycleFlip;
        e.at = simulator().now();
        e.node = inc_index;
        e.gap = inc_index;
        e.a = mine;
        emitTrace(e);
    }
    for (const Inc *nb : {&leftOf(inc_index), &rightOf(inc_index)}) {
        const std::uint64_t theirs = nb->cycleCount();
        const std::uint64_t skew =
            mine > theirs ? mine - theirs : theirs - mine;
        if (skew > rmbStats_.maxCycleSkew)
            rmbStats_.maxCycleSkew = skew;
        if (config_.verify != VerifyLevel::Off) {
            rmb_assert(skew <= 1, "Lemma 1 violated: INC ",
                       inc_index, " at cycle ", mine, ", neighbour ",
                       nb->index(), " at ", theirs);
        }
    }
}

void
RmbNetwork::auditBus(const VirtualBus &bus) const
{
    if (bus.state != BusState::Blocked)
        return;
    const auto &q = waiters_[bus.headNode];
    rmb_assert(std::find(q.begin(), q.end(), bus.handle()) != q.end(),
               "blocked bus ", bus.id, " missing from waiter list");
}

} // namespace core
} // namespace rmb
