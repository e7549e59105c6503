#include "rmb/network.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/prof.hh"
#include "rmb/compaction_rules.hh"
#include "rmb/fault.hh"

namespace rmb {
namespace core {

namespace {

/** User-input validation; must run before any member construction. */
const RmbConfig &
validated(const RmbConfig &config)
{
    return validatedEngineConfig(config);
}

} // namespace

RmbNetwork::RmbNetwork(sim::Simulator &simulator,
                       const RmbConfig &config)
    : Engine(simulator, "RMB(ring)", validated(config).numNodes),
      config_(config), rng_(config.seed),
      segments_(config.numNodes, config.numBuses),
      pes_(config.numNodes), waiters_(config.numNodes),
      rmbStats_(metrics())
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

    if (config_.faultMtbf > 0) {
        // The fault process draws from its own split substream so
        // enabling it never perturbs protocol randomness (INC
        // phases above, backoff jitter) for a given seed.
        faults_ = std::make_unique<FaultSchedule>(
            *this, sim::Random(config_.seed).split(kFaultStream));
        faults_->start();
    }
}

RmbNetwork::~RmbNetwork() = default;

const VirtualBus *
RmbNetwork::bus(VirtualBusId id) const
{
    rmb_assert(id != kNoBus && id < nextBusId_,
               "virtual bus id ", id, " was never allocated",
               " (ids run 1..", nextBusId_ - 1, ")");
    for (const VirtualBus &b : pool_.slots())
        if (b.live && b.id == id)
            return &b;
    return nullptr;
}

std::vector<VirtualBusId>
RmbNetwork::liveBusIds() const
{
    std::vector<VirtualBusId> ids;
    for (const VirtualBus &b : pool_.slots())
        if (b.live)
            ids.push_back(b.id);
    std::sort(ids.begin(), ids.end());
    return ids;
}

VirtualBus &
RmbNetwork::busAt(BusHandle h)
{
    VirtualBus *bus = find(h);
    rmb_assert(bus, "no live bus in slot ", handleSlot(h),
               " generation ", handleGen(h));
    return *bus;
}

obs::TraceEvent
RmbNetwork::busEvent(obs::EventKind kind, const VirtualBus &bus,
                     net::NodeId node, GapId gap, Level level) const
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

net::MessageId
RmbNetwork::send(net::NodeId src, net::NodeId dst,
                 std::uint32_t payload_flits)
{
    net::Message &m = createMessage(src, dst, payload_flits);
    pes_[src].sendQueue.push_back(m.id);
    const net::MessageId id = m.id;
    simulator().schedule(0, [this, src] { tryInject(src); });
    superviseActivity();
    return id;
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
    Pe &pe = pes_[node];
    // Write off queued traffic that permanent damage has made
    // undeliverable before spending ports or backoff on it.  The
    // kernel engine performs the identical sweep at the identical
    // point, so the two backends dead-letter deterministically.
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
        return;

    // Section 2.3: a new request may only be inserted at the top
    // output port; if it is busy the header flit stays buffered.
    const Level top = static_cast<Level>(config_.numBuses) - 1;
    const GapId gap = node;
    if (!segments_.isFree(gap, top))
        return;

    const net::MessageId mid = pe.sendQueue.front();
    pe.sendQueue.pop_front();
    pe.activeSends.push_back(mid);

    net::Message &m = messageRef(mid);
    if (m.state == net::MessageState::Queued)
        noteFirstAttempt(m);
    else
        noteRetry(m);

    const std::uint32_t slot = pool_.alloc();
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

    const BusHandle h = bus.handle();
    segments_.occupy(gap, top, h, simulator().now());
    bus.hops.push_back(Hop{gap, top, kNoLevel, 0});
    rmbStats_.liveBuses.adjust(simulator().now(), +1);
    if (tracing())
        emitTrace(busEvent(obs::EventKind::HeaderHop, bus, node,
                           gap, top));

    simulator().schedule(config_.headerHopDelay,
                         [this, h] { headerArrive(h); });
    checkAfterMutation();
}

void
RmbNetwork::headerArrive(BusHandle h)
{
    // A fault or watchdog sever may beat an in-flight header event:
    // the bus is then gone (short teardown) or in FaultTeardown.
    // Any other state mismatch is still a protocol bug.
    VirtualBus *found = find(h);
    if (!found || found->state == BusState::FaultTeardown)
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
        segments_.faultyCount() > 0 && next_gap != bus.dst;
    const auto dead_end = [&](Level lin) {
        for (Level lout : {lin - 1, lin, lin + 1}) {
            if (lout < 0 ||
                lout >= static_cast<Level>(config_.numBuses))
                continue;
            if (!segments_.isFaulty(next_gap, lout))
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
        if (!segments_.isFree(gap, l))
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
            rmbStats_.blockedTime.add(static_cast<double>(
                simulator().now() - bus.blockedSince));
            auto &q = waiters_[gap];
            q.erase(std::remove(q.begin(), q.end(), h), q.end());
            bus.state = BusState::Advancing;
            if (tracing())
                emitTrace(busEvent(obs::EventKind::Unblock, bus,
                                   here, gap));
        }
        segments_.occupy(gap, chosen, h, simulator().now());
        bus.hops.push_back(Hop{gap, chosen, kNoLevel, 0});
        bus.headNode = next_gap;
        ++bus.epoch;
        if (tracing())
            emitTrace(busEvent(obs::EventKind::HeaderHop, bus, here,
                               gap, chosen));
        simulator().schedule(config_.headerHopDelay,
                             [this, h] { headerArrive(h); });
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
    rmbStats_.blockedTime.add(
        static_cast<double>(simulator().now() - bus.blockedSince));
    auto &q = waiters_[bus.headNode];
    q.erase(std::remove(q.begin(), q.end(), h), q.end());
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
    VirtualBus *found = find(h);
    if (!found || found->state == BusState::FaultTeardown)
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
    simulator().schedule(duration,
                         [this, h] { finalFlitArrive(h); });
}

void
RmbNetwork::departFlit(BusHandle h, std::uint32_t seq)
{
    VirtualBus *found = find(h);
    if (!found || found->state == BusState::FaultTeardown)
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
    VirtualBus *found = find(h);
    if (!found || found->state == BusState::FaultTeardown)
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
        finalFlitArrive(h);
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
    VirtualBus *found = find(h);
    if (!found)
        return; // bus already torn down (Dacks may trail the FF)
    VirtualBus &bus = *found;
    if (bus.state == BusState::FaultTeardown)
        return; // severed mid-stream; the trailing Dack is void
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
RmbNetwork::finalFlitArrive(BusHandle h)
{
    VirtualBus *found = find(h);
    if (!found || found->state == BusState::FaultTeardown)
        return; // severed before the final flit could land
    VirtualBus &bus = *found;
    rmb_assert(bus.state == BusState::Streaming,
               "FF arrived on a non-streaming bus");
    noteDelivered(messageRef(bus.message),
                  static_cast<std::uint32_t>(bus.hops.size()));
    noteCircuit(-1);
    pes_[bus.dst].releaseReceive(bus.message);
    finishMulticast(bus.message);

    // Delivered despite at least one earlier sever: the recovery
    // path (teardown -> requeue -> retry) closed the loop.
    auto sev = severedAt_.find(bus.message);
    if (sev != severedAt_.end()) {
        ++rmbStats_.messagesRecovered;
        rmbStats_.recoveryLatency.add(
            static_cast<double>(simulator().now() - sev->second));
        rmbStats_.recoveryLatencyHist.add(
            simulator().now() - sev->second);
        if (tracing()) {
            obs::TraceEvent e = busEvent(
                obs::EventKind::MessageRecovered, bus, bus.dst);
            e.a = simulator().now() - sev->second;
            emitTrace(e);
        }
        severedAt_.erase(sev);
    }
    startTeardown(bus, BusState::FackTeardown);
}

void
RmbNetwork::startTeardown(VirtualBus &bus, BusState kind)
{
    rmb_assert(isTeardown(kind), "bad teardown kind");
    bus.state = kind;
    ++bus.epoch;
    if (tracing()) {
        obs::TraceEvent e = busEvent(obs::EventKind::Teardown, bus,
                                     bus.headNode);
        e.a = kind == BusState::FackTeardown   ? obs::kTeardownFack
              : kind == BusState::NackTeardown ? obs::kTeardownNack
                                               : obs::kTeardownFault;
        emitTrace(e);
    }
    const BusHandle h = bus.handle();
    simulator().schedule(config_.ackHopDelay,
                         [this, h] { teardownStep(h); });
}

void
RmbNetwork::teardownStep(BusHandle h)
{
    VirtualBus &bus = busAt(h);
    rmb_assert(isTeardown(bus.state), "teardown step on a live bus");
    rmb_assert(!bus.hops.empty(), "teardown of an empty bus");

    // The Fack/Nack just crossed the head-most remaining hop; the
    // INCs on both sides free its port(s).
    Hop hop = bus.hops.back();
    bus.hops.pop_back();
    ++bus.hopsFreed;
    ++bus.epoch;

    if (!bus.hops.empty()) {
        // `bus` dangles from here: a release may inject a bus.
        if (hop.inMove())
            releaseSegment(h, hop.gap, hop.dualLevel,
                           obs::kFreeTeardown);
        releaseSegment(h, hop.gap, hop.level, obs::kFreeTeardown);
        simulator().schedule(config_.ackHopDelay,
                             [this, h] { teardownStep(h); });
        checkAfterMutation();
        return;
    }
    busFinished(h, hop);
}

void
RmbNetwork::busFinished(BusHandle h, const Hop &last_hop)
{
    // Retire the bus *before* releasing its final (source-gap)
    // segments: the release wakeups (blocked headers, pending
    // injections) must never observe a live bus with no hops.
    VirtualBus &bus = busAt(h);
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
    pool_.retire(handleSlot(h));

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

    const Level top = static_cast<Level>(config_.numBuses) - 1;
    if (!top_released && last_hop.level == top) {
        rmbStats_.topReleaseLatency.add(
            static_cast<double>(now - injected_at));
    }
    // The bus record is already gone, so the SegmentFree events are
    // assembled from the captured ids rather than via busEvent().
    const auto lastFree = [&](GapId gap, Level level) {
        segments_.release(gap, level, h, now);
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
        if (!segments_.isFaulty(gap, level))
            segmentFreed(gap, level);
    };
    if (last_hop.inMove())
        lastFree(last_hop.gap, last_hop.dualLevel);
    lastFree(last_hop.gap, last_hop.level);
    tryInject(src);
    checkAfterMutation();
}

void
RmbNetwork::scheduleRetry(net::NodeId node, net::MessageId msg)
{
    sim::Tick backoff = rng_.uniformRange(
        config_.retryBackoffMin, config_.retryBackoffMax);
    if (config_.exponentialBackoff) {
        const std::uint32_t shift =
            std::min(message(msg).retries, 16u);
        if ((backoff << shift) >= config_.retryBackoffCap) {
            // Keep the jitter when capping: a deterministic capped
            // backoff phase-locks colliding senders into permanent
            // livelock.
            backoff = rng_.uniformRange(config_.retryBackoffCap / 2,
                                        config_.retryBackoffCap);
        } else {
            backoff <<= shift;
        }
    }
    Pe &pe = pes_[node];
    pe.backoffUntil = simulator().now() + backoff;
    if (tracing()) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::Backoff;
        e.at = simulator().now();
        e.message = msg;
        e.node = node;
        e.a = backoff;
        emitTrace(e);
    }
    simulator().schedule(backoff, [this, node] { tryInject(node); });
}

void
RmbNetwork::noteSegmentFree(const VirtualBus &bus, GapId gap,
                            Level level,
                            obs::SegmentFreeReason reason)
{
    if (!tracing())
        return;
    obs::TraceEvent e = busEvent(obs::EventKind::SegmentFree, bus,
                                 gap, gap, level);
    e.a = reason;
    emitTrace(e);
}

void
RmbNetwork::releaseSegment(BusHandle h, GapId gap, Level level,
                           obs::SegmentFreeReason reason)
{
    VirtualBus &bus = busAt(h);
    segments_.release(gap, level, h, simulator().now());
    noteSegmentFree(bus, gap, level, reason);
    if (!bus.topReleased && gap == bus.srcGap() &&
        level == static_cast<Level>(config_.numBuses) - 1) {
        bus.topReleased = true;
        rmbStats_.topReleaseLatency.add(
            static_cast<double>(simulator().now() - bus.injectedAt));
    }
    // A faulted segment is released (the severed owner lets go of
    // it) but not *freed*: nobody may claim it until repair.  Last:
    // the wakeup may grow pool_ and move `bus`.
    if (!segments_.isFaulty(gap, level))
        segmentFreed(gap, level);
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
            if (!segments_.isFree(gap, level))
                break; // the freed segment was taken
            tryAdvance(h);
        }
    }
    // A freed top segment lets the local PE inject a queued request.
    if (level == static_cast<Level>(config_.numBuses) - 1)
        tryInject(gap);
}

// ----------------------------------------------------------------
// Compaction (called from Inc)
// ----------------------------------------------------------------

bool
RmbNetwork::hopMovable(const VirtualBus &bus,
                       std::size_t hop_index) const
{
    // Figure 7, via the shared pure rule the model checker also
    // drives (rmb/compaction_rules.hh).
    return hopMovableRule(bus, hop_index,
                          [this](GapId gap, Level level) {
                              return segments_.isFree(gap, level);
                          });
}

void
RmbNetwork::makeEligibleMoves(GapId gap, int parity,
                              std::vector<MoveRecord> &out)
{
    RMB_PROF_SCOPE_SAMPLED("event.compaction_make");
    const std::size_t first = out.size();
    const auto k = static_cast<Level>(config_.numBuses);
    // Levels of the considered parity, from the lowest above 0.
    for (Level l = parity == 0 ? 2 : 1; l < k; l += 2) {
        const BusHandle h = segments_.occupant(gap, l);
        if (h == kNoHandle)
            continue;
        VirtualBus &bus = busAt(h);
        // Locate the hop crossing this gap.
        const std::size_t idx = hopIndexAt(bus, gap);
        if (idx >= bus.hops.size())
            continue; // freed region of a tearing-down bus
        Hop &hop = bus.hops[idx];
        rmb_assert(hop.gap == gap, "hop/gap bookkeeping mismatch");
        if (hop.level != l)
            continue; // l is the dual target of a move in progress
        if (!hopMovable(bus, idx))
            continue;
        // Make step: claim the lower segment; both segments carry
        // the signal until the break step.
        segments_.occupy(gap, l - 1, h, simulator().now());
        hop.dualLevel = l - 1;
        ++hop.moveSeq;
        if (tracing()) {
            obs::TraceEvent e = busEvent(
                obs::EventKind::CompactionMake, bus, gap, gap, l);
            e.a = static_cast<std::uint64_t>(l - 1);
            e.b = hop.moveSeq;
            emitTrace(e);
        }
        out.push_back(MoveRecord{h, gap, l, l - 1});
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
        if (segments_.isFaulty(r.gap, r.toLevel)) {
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
        releaseSegment(r.bus, r.gap, r.fromLevel,
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

void
RmbNetwork::failSegment(GapId gap, Level level)
{
    const BusHandle occupant = segments_.occupant(gap, level);
    const VirtualBusId occupant_id =
        occupant == kNoHandle ? kNoBus : busAt(occupant).id;
    if (occupant != kNoHandle && !config_.transientFaults) {
        panic("failSegment(", gap, ",", level, "): can only fault a"
              " free segment while transient faults are disabled,"
              " and level ", level, " of gap ", gap,
              " is held by virtual bus ", occupant_id,
              "; set RmbConfig::transientFaults to sever live"
              " buses");
    }
    segments_.markFaulty(gap, level, simulator().now());
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
    if (occupant != kNoHandle)
        severOccupant(gap, level, occupant);
    checkAfterMutation();
}

void
RmbNetwork::repairSegment(GapId gap, Level level)
{
    segments_.clearFault(gap, level, simulator().now());
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
    if (segments_.isFree(gap, level))
        segmentFreed(gap, level);
    checkAfterMutation();
}

void
RmbNetwork::severOccupant(GapId gap, Level level, BusHandle h)
{
    VirtualBus &bus = busAt(h);
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
        segments_.release(gap, level, h, simulator().now());
        noteSegmentFree(bus, gap, level, obs::kFreeMoveCancel);
        hop.dualLevel = kNoLevel;
        return;
    }
    if (hop.inMove() && level == hop.level) {
        // The fault hit the *old* level mid-move: make-before-break
        // means the lower segment already carries the signal, so
        // complete the move early instead of severing.
        segments_.release(gap, level, h, simulator().now());
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

void
RmbNetwork::severBus(VirtualBus &bus, std::uint64_t reason)
{
    rmb_assert(!isTeardown(bus.state),
               "sever of a bus already tearing down");
    const sim::Tick now = simulator().now();

    switch (bus.state) {
      case BusState::Blocked: {
        rmbStats_.blockedTime.add(
            static_cast<double>(now - bus.blockedSince));
        auto &q = waiters_[bus.headNode];
        q.erase(std::remove(q.begin(), q.end(), bus.handle()),
                q.end());
        break;
      }
      case BusState::AwaitHack:
        pes_[bus.dst].releaseReceive(bus.message);
        break;
      case BusState::Streaming:
        pes_[bus.dst].releaseReceive(bus.message);
        noteCircuit(-1);
        // The re-injected header starts a fresh circuit; in-flight
        // flit/Dack events die against the FaultTeardown guards.
        messageRef(bus.message).state = net::MessageState::Setup;
        break;
      default:
        break; // Advancing: the in-flight header event goes stale
    }

    ++rmbStats_.busesSevered;
    severedAt_.emplace(bus.message, now); // keeps the first sever
    if (tracing()) {
        obs::TraceEvent e = busEvent(obs::EventKind::BusSevered,
                                     bus, bus.headNode);
        e.a = reason;
        emitTrace(e);
    }
    startTeardown(bus, BusState::FaultTeardown);
}

void
RmbNetwork::writeOff(net::Message &m, obs::DeadLetterReason reason)
{
    auto sev = severedAt_.find(m.id);
    if (sev != severedAt_.end()) {
        ++rmbStats_.messagesLost;
        severedAt_.erase(sev);
    }
    deadLetterMessage(m, rmbStats_, reason);
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
RmbNetwork::rescueStalled(net::MessageId id)
{
    net::Message &m = messageRef(id);
    if (m.state == net::MessageState::Delivered ||
        m.state == net::MessageState::Failed) {
        return false;
    }

    VirtualBus *carrier = nullptr;
    // At most one bus carries the message.
    for (std::uint32_t slot = 0; slot < pool_.size(); ++slot) {
        if (pool_[slot].live && pool_[slot].message == id) {
            carrier = &pool_[slot];
            break;
        }
    }
    if (carrier) {
        // Teardowns are self-driving, and closed-form streaming is
        // one pre-scheduled event that cannot be lost - neither
        // counts as "silent".
        if (isTeardown(carrier->state))
            return false;
        if (carrier->state == BusState::Streaming &&
            !config_.detailedFlits) {
            return false;
        }
        ++rmbStats_.watchdogFires;
        if (tracing()) {
            obs::TraceEvent e = busEvent(
                obs::EventKind::WatchdogFire, *carrier,
                carrier->src);
            e.a = carrier->epoch;
            emitTrace(e);
        }
        severBus(*carrier, obs::kSeverWatchdog);
        checkAfterMutation();
        return true;
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

// ----------------------------------------------------------------
// Derived status registers and invariant auditing
// ----------------------------------------------------------------

std::uint8_t
RmbNetwork::outputStatus(net::NodeId node, Level level,
                         bool *pe_driven) const
{
    if (pe_driven)
        *pe_driven = false;
    const BusHandle h = segments_.occupant(node, level);
    if (h == kNoHandle)
        return 0b000;
    const VirtualBus *b = find(h);
    rmb_assert(b, "segment held by a dead bus");
    const std::size_t idx = hopIndexAt(*b, node);
    rmb_assert(idx < b->hops.size(), "occupant hop out of range");

    if (idx == 0) {
        // Source hop: the PE write port drives this output; Table 1
        // does not model PE sources.
        if (pe_driven)
            *pe_driven = true;
        return 0b000;
    }

    const Hop &prev = b->hops[idx - 1];
    StatusRegister reg;
    if (prev.inMove()) {
        // Input mid-move: both the old and the new input level drive
        // this output (the documented 011/110 dual codes).
        reg.connect(sourceDirOf(prev.level, level));
        reg.connect(sourceDirOf(prev.dualLevel, level));
    } else {
        reg.connect(sourceDirOf(prev.level, level));
    }
    return reg.bits();
}

void
RmbNetwork::checkAfterMutation() const
{
    if (config_.verify == VerifyLevel::Full)
        auditInvariants();
}

void
RmbNetwork::auditInvariants() const
{
    const auto n = config_.numNodes;
    const auto k = static_cast<Level>(config_.numBuses);

    // Every hop's claim must match the grid, and vice versa.
    std::uint64_t claimed = 0;
    for (const VirtualBus &bus : pool_.slots()) {
        if (!bus.live)
            continue;
        const VirtualBusId id = bus.id;
        const BusHandle h = bus.handle();
        rmb_assert(!bus.hops.empty(), "live bus ", id,
                   " with no hops");
        rmb_assert(bus.hops.size() + bus.hopsFreed <=
                       bus.pathLength(n),
                   "bus ", id, " longer than its path");
        for (std::size_t i = 0; i < bus.hops.size(); ++i) {
            const Hop &hop = bus.hops[i];
            rmb_assert(hop.gap ==
                           (bus.srcGap() + i) % n,
                       "bus ", id, " hop ", i, " at wrong gap");
            rmb_assert(hop.level >= 0 && hop.level < k,
                       "bus ", id, " level out of range");
            rmb_assert(segments_.occupant(hop.gap, hop.level) == h,
                       "grid does not record bus ", id, " at (",
                       hop.gap, ",", hop.level, ")");
            ++claimed;
            if (hop.inMove()) {
                rmb_assert(hop.dualLevel == hop.level - 1,
                           "moves must go exactly one level down");
                rmb_assert(segments_.occupant(hop.gap,
                                              hop.dualLevel) == h,
                           "dual segment not recorded");
                ++claimed;
            }
            if (i > 0) {
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
                        rmb_assert(a - b <= 1 && b - a <= 1,
                                   "bus ", id, " kinked at gap ",
                                   hop.gap, ": levels ", a, " -> ",
                                   b);
                    }
                }
            }
        }
        // Circuit-complete states must span the whole path.
        if (bus.state == BusState::AwaitHack ||
            bus.state == BusState::Streaming) {
            rmb_assert(bus.hops.size() == bus.pathLength(n),
                       "established bus ", id,
                       " does not span its path");
        }
        if (bus.state == BusState::Blocked) {
            const auto &q = waiters_[bus.headNode];
            rmb_assert(std::find(q.begin(), q.end(), h) != q.end(),
                       "blocked bus ", id, " missing from waiter"
                       " list");
        }
    }
    // occupiedCount() counts bus-owned cells only; faulted cells
    // are tracked separately by faultyCount().
    rmb_assert(claimed == segments_.occupiedCount(),
               "grid claims ", segments_.occupiedCount(),
               " segments but buses own ", claimed, " (plus ",
               segments_.faultyCount(), " faulted)");

    // Fault/occupancy consistency: the fault-mask count adds up, a
    // faulted segment never reads as free, and any bus still holding
    // one must be tearing down (failSegment severs the occupant
    // synchronously; only the walking teardown may linger).
    std::uint32_t faulted_seen = 0;
    for (GapId g = 0; g < n; ++g) {
        for (Level l = 0; l < k; ++l) {
            if (!segments_.isFaulty(g, l))
                continue;
            ++faulted_seen;
            rmb_assert(!segments_.isFree(g, l),
                       "faulted segment (", g, ",", l,
                       ") reads as free");
            const BusHandle h = segments_.occupant(g, l);
            if (h == kNoHandle)
                continue;
            const VirtualBus *owner = find(h);
            rmb_assert(owner, "faulted segment (", g, ",", l,
                       ") held by a dead bus (slot ", handleSlot(h),
                       ")");
            rmb_assert(isTeardown(owner->state),
                       "bus ", owner->id, " holds faulted segment (",
                       g, ",", l, ") but is not tearing down (state ",
                       static_cast<int>(owner->state), ")");
        }
    }
    rmb_assert(faulted_seen == segments_.faultyCount(),
               "fault mask shows ", faulted_seen,
               " faulted segments but the table counts ",
               segments_.faultyCount());

    // Derived Table-1 codes must all be legal (outputStatus panics
    // internally if not).
    for (net::NodeId node = 0; node < n; ++node)
        for (Level l = 0; l < k; ++l)
            (void)outputStatus(node, l);
}

} // namespace core
} // namespace rmb
