#include "rmb/kernel/kernel_engine.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "obs/prof.hh"
#include "rmb/compaction_rules.hh"
#include "rmb/fault.hh"
#include "rmb/status_register.hh"
#include "sim/simulator.hh"

namespace rmb {
namespace core {

namespace {

/**
 * Force the engine tag before validating: a config handed straight
 * to this constructor must pass the *kernel* compatibility checks
 * regardless of what its engine field said.
 */
RmbConfig
kernelValidated(RmbConfig config)
{
    config.engine = EngineKind::Kernel;
    validatedEngineConfig(config);
    return config;
}

sim::Tick
nextPow2(sim::Tick v)
{
    sim::Tick p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

CycleKernelEngine::CycleKernelEngine(sim::Simulator &simulator,
                                     const RmbConfig &config)
    : Engine(simulator, "RMB(kernel)",
             kernelValidated(config).numNodes),
      config_(kernelValidated(config)), rng_(config.seed),
      planes_(config.numNodes, config.numBuses),
      pes_(config.numNodes), rmbStats_(metrics())
{
    // One fixed global compaction period, drawn from the same range
    // the event engine draws each INC's period from.  The kernel's
    // cycle is synchronous (skew 0): Lemma 1 bounds the event
    // engine's skew to <= 1, and the zero-skew schedule is one of
    // the legal executions of the same pure rules.
    period_ = static_cast<sim::Tick>(rng_.uniformRange(
        config_.cyclePeriodMin, config_.cyclePeriodMax));

    // Wheel span: comfortably past every common delay (header and
    // ack walks, one cycle period, capped backoff).  Anything rarer
    // and further out - long streams, MTTR repairs - overflows to
    // the unsorted far list, which is scanned only when its minimum
    // comes into range.
    const sim::Tick ack_walk =
        config_.ackHopDelay * config_.numNodes;
    sim::Tick span = 256;
    span = std::max(span, 2 * config_.headerHopDelay);
    span = std::max(span, 2 * ack_walk);
    span = std::max(span, 2 * period_);
    span = std::max(span, config_.retryBackoffMax + 1);
    span = std::max(span, config_.retryBackoffCap + 1);
    span = std::min(nextPow2(span), sim::Tick{1} << 16);
    wheel_.assign(static_cast<std::size_t>(span),
                  std::vector<Action>{});
    wheelMask_ = span - 1;

    if (config_.numNodes % 2 != 0) {
        warn("odd node count: the odd/even gap parity of section"
             " 2.4 is imperfect on an odd ring (two adjacent gaps"
             " share a parity); the synchronous kernel cycle keeps"
             " the protocol correct regardless");
    }

    if (config_.faultMtbf > 0) {
        faults_ = std::make_unique<FaultSchedule>(
            *this, sim::Random(config_.seed).split(kFaultStream));
        faults_->start();
    }
}

CycleKernelEngine::~CycleKernelEngine() = default;

// ----------------------------------------------------------------
// Agenda: timing wheel, far list, wake management
// ----------------------------------------------------------------

void
CycleKernelEngine::scheduleAction(sim::Tick delay,
                                  Action::Kind kind,
                                  std::uint32_t slot,
                                  std::uint32_t gen)
{
    const sim::Tick now = simulator().now();
    const sim::Tick due = now + delay;
    const Action a{kind, slot, gen, due};
    if (delay <= wheelMask_) {
        wheel_[due & wheelMask_].push_back(a);
        ++wheelPending_;
    } else {
        farActions_.push_back(a);
        farMinDue_ = std::min(farMinDue_, due);
    }
    if (processing_ == kNever)
        ensureWake(due);
}

void
CycleKernelEngine::ensureWake(sim::Tick due)
{
    const sim::Tick now = simulator().now();
    // An armed wake at or before the new due tick already covers it
    // (it will re-arm when it fires).
    if (armedAt_ != kNever && armedAt_ > now && armedAt_ <= due)
        return;
    simulator().schedule(due - now, [this] { onWake(); });
    armedAt_ = due;
}

void
CycleKernelEngine::onWake()
{
    // One scope per wake covers the whole self-clocked wheel-drain
    // loop: per-tick scopes would dominate the cost they measure.
    // Sampled: a sustained stream wakes tens of thousands of times
    // per millisecond-scale run, and the TSC pair per wake alone
    // costs measurable percent against the bench_microperf overhead
    // gate.
    RMB_PROF_SCOPE_SAMPLED("kernel.wheel");
    processTick(simulator().now());
    // Self-clocked fast path: while the simulator has nothing due
    // before our next action tick, step the clock ourselves instead
    // of bouncing every tick through the event heap.  Outcomes are
    // identical — the same actions run at the same ticks — but a
    // kernel-only stretch costs zero heap operations.
    sim::Tick due;
    while ((due = nextDue()) != kNever && simulator().advanceIfIdle(due))
        processTick(due);
    rearm();
}

void
CycleKernelEngine::rearm()
{
    const sim::Tick due = nextDue();
    if (due == kNever) {
        armedAt_ = kNever;
        return;
    }
    const sim::Tick now = simulator().now();
    if (armedAt_ != kNever && armedAt_ > now && armedAt_ <= due)
        return; // a live (possibly zombie) wake covers it
    simulator().schedule(due - now, [this] { onWake(); });
    armedAt_ = due;
}

sim::Tick
CycleKernelEngine::nextDue() const
{
    // Known dues outside the wheel bound the scan: a wheel hit past
    // them cannot be the minimum, so stop early instead of walking
    // the full wheel span on sparse ticks.
    sim::Tick best = farMinDue_;
    if (cycleArmed_ && !cycleQuiet_)
        best = std::min(best, nextMakeAt_);
    best = std::min(best, nextBreakAt_);
    if (wheelPending_ > 0) {
        const sim::Tick now = simulator().now();
        const sim::Tick last =
            std::min(now + wheelMask_ + 1, best - 1);
        for (sim::Tick t = now + 1; t <= last; ++t) {
            const auto &bucket = wheel_[t & wheelMask_];
            if (bucket.empty())
                continue;
            for (const Action &a : bucket) {
                if (a.due == t)
                    return t;
            }
        }
    }
    return best;
}

void
CycleKernelEngine::processTick(sim::Tick now)
{
    processing_ = now;

    // Pull far actions into the wheel once their minimum is in
    // range; the scan re-establishes the minimum of what stays.
    if (farMinDue_ != kNever && farMinDue_ - now <= wheelMask_) {
        std::size_t keep = 0;
        sim::Tick new_min = kNever;
        for (const Action &a : farActions_) {
            if (a.due - now <= wheelMask_) {
                wheel_[a.due & wheelMask_].push_back(a);
                ++wheelPending_;
            } else {
                farActions_[keep++] = a;
                new_min = std::min(new_min, a.due);
            }
        }
        farActions_.resize(keep);
        farMinDue_ = new_min;
    }

    // Drain this tick's bucket.  Entries whose due tick is a wheel
    // wrap ahead are kept in place; the index loop tolerates pushes
    // from same-tick dispatches.
    auto &bucket = wheel_[now & wheelMask_];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < bucket.size(); ++i) {
        const Action a = bucket[i];
        if (a.due != now) {
            bucket[keep++] = a;
            continue;
        }
        --wheelPending_;
        dispatch(a);
    }
    bucket.resize(keep);

    // A dispatched action may have changed the grid while the
    // cycle clock slept; settle the slept cycles before the make
    // check so a make due this very tick rescans.
    if (cycleQuiet_ && planes_.epoch() != quietEpoch_)
        exitQuietCycles(now);

    // Cycle steps after the tick's protocol actions: break (armed
    // half a period before) strictly precedes the next make.
    if (nextBreakAt_ == now)
        breakStep(now);
    if (cycleArmed_ && nextMakeAt_ == now)
        makeStep(now);

    processing_ = kNever;
    checkAfterMutation();
}

void
CycleKernelEngine::dispatch(const Action &a)
{
    if (a.kind == Action::TryInject) {
        tryInject(a.slot);
        return;
    }
    KBus &bus = pool_[a.slot];
    if (!bus.live || bus.gen != a.gen)
        return; // the bus this action was aimed at is gone
    switch (a.kind) {
    case Action::HeaderArrive:
        headerArrive(a.slot);
        break;
    case Action::HackArrive:
        hackArriveAtSource(a.slot);
        break;
    case Action::FinalFlit:
        finalFlitArrive(a.slot);
        break;
    case Action::TeardownStep:
        teardownStep(a.slot);
        break;
    case Action::TryInject:
        break; // handled above
    }
}

// ----------------------------------------------------------------
// Helpers
// ----------------------------------------------------------------

std::uint32_t
CycleKernelEngine::allocSlot()
{
    rmb_assert(pool_.hasFree() ||
                   pool_.size() <
                       std::uint64_t{config_.numNodes} *
                           config_.numBuses,
               "kernel bus pool would grow past N*k buses: a live bus"
               " holds no segment");
    return pool_.alloc();
}

net::NodeId
CycleKernelEngine::effectiveDst(const KBus &bus) const
{
    if (mutation_ != TestMutation::ShortCircuit)
        return bus.dst;
    const std::uint32_t n = config_.numNodes;
    if (ringDistance(bus.src, bus.dst, n) <= 1)
        return bus.dst; // a one-hop path cannot be shortened
    return ringPrev(bus.dst, n);
}

std::uint32_t
CycleKernelEngine::pathLength(const KBus &bus) const
{
    return ringDistance(bus.src, effectiveDst(bus), config_.numNodes);
}

bool
CycleKernelEngine::isFree(GapId gap, Level level) const
{
    return planes_.isFree(gap, level);
}

std::size_t
CycleKernelEngine::hopIndexAt(const KBus &bus, GapId gap) const
{
    return ringDistance(bus.srcGap(), gap, config_.numNodes);
}

obs::TraceEvent
CycleKernelEngine::busEvent(obs::EventKind kind, const KBus &bus,
                            net::NodeId node, GapId gap,
                            Level level) const
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

void
CycleKernelEngine::checkAfterMutation() const
{
    // Full verification audits once per processed tick (the kernel's
    // observable unit), not per mutation like the event engine - the
    // intermediate states inside a tick are the same ones the event
    // engine reaches between events.
    if (config_.verify == VerifyLevel::Full)
        auditInvariants();
}

// ----------------------------------------------------------------
// Protocol steps
// ----------------------------------------------------------------

net::MessageId
CycleKernelEngine::send(net::NodeId src, net::NodeId dst,
                        std::uint32_t payload_flits)
{
    net::Message &m = createMessage(src, dst, payload_flits);
    pes_[src].sendQueue.push_back(m.id);
    const net::MessageId id = m.id;
    scheduleAction(0, Action::TryInject, src, 0);
    superviseActivity();
    return id;
}

void
CycleKernelEngine::tryInject(net::NodeId node)
{
    Pe &pe = pes_[node];
    // Write off queued traffic that permanent damage has made
    // undeliverable - the identical sweep, at the identical point,
    // as the event engine's tryInject, so the two backends
    // dead-letter deterministically.
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
        return; // the retry's TryInject action is already armed

    const Level top = static_cast<Level>(config_.numBuses) - 1;
    const GapId gap = node;
    if (!isFree(gap, top))
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
    KBus &bus = pool_[slot];
    bus.id = nextBusId_++;
    bus.message = mid;
    bus.src = m.src;
    bus.dst = m.dst;
    bus.state = BusState::Advancing;
    bus.headNode = ringNext(node, config_.numNodes);
    bus.injectedAt = simulator().now();
    bus.hopsFreed = 0;
    bus.topReleased = false;
    bus.live = true;

    planes_.occupy(gap, top, slot, simulator().now());
    bus.hops.push_back(Hop{gap, top, kNoLevel, 0});
    ++liveBuses_;
    rmbStats_.liveBuses.adjust(simulator().now(), +1);
    if (tracing())
        emitTrace(busEvent(obs::EventKind::HeaderHop, bus, node,
                           gap, top));

    scheduleAction(config_.headerHopDelay, Action::HeaderArrive,
                   slot, bus.gen);
    armCycle();
}

void
CycleKernelEngine::headerArrive(std::uint32_t slot)
{
    KBus &bus = pool_[slot];
    rmb_assert(bus.state == BusState::Advancing,
               "header arrival on a non-advancing bus");
    const net::NodeId here = bus.headNode;
    if (here == effectiveDst(bus)) {
        Pe &pe = pes_[bus.dst];
        if (pe.receivePortFree(config_.receivePorts)) {
            acceptAtDestination(bus);
        } else {
            noteNack(messageRef(bus.message));
            startTeardown(bus, BusState::NackTeardown);
        }
        return;
    }
    tryAdvance(slot);
}

void
CycleKernelEngine::tryAdvance(std::uint32_t slot)
{
    KBus &bus = pool_[slot];
    rmb_assert(bus.state == BusState::Advancing,
               "tryAdvance on a bus in state ",
               static_cast<int>(bus.state));
    const net::NodeId here = bus.headNode;
    const GapId gap = here;

    // Fault lookahead, mirroring the event engine: skip output
    // levels from which every onward level of the next gap is
    // faulted, unless only dead ends are free.
    const GapId next_gap = ringNext(here, config_.numNodes);
    const bool lookahead = planes_.faultyCount() > 0 &&
                           next_gap != effectiveDst(bus);
    const auto dead_end = [&](Level lin) {
        for (Level lout : {lin - 1, lin, lin + 1}) {
            if (lout < 0 ||
                lout >= static_cast<Level>(config_.numBuses))
                continue;
            if (!planes_.faulted(next_gap, lout))
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
        if (!isFree(gap, l))
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
        planes_.occupy(gap, chosen, slot, simulator().now());
        bus.hops.push_back(Hop{gap, chosen, kNoLevel, 0});
        bus.headNode = next_gap;
        if (tracing())
            emitTrace(busEvent(obs::EventKind::HeaderHop, bus,
                               here, gap, chosen));
        scheduleAction(config_.headerHopDelay,
                       Action::HeaderArrive, slot, bus.gen);
        return;
    }

    // No reachable free segment: the kernel only models NackRetry
    // (validate() refuses Wait), so abort and retry from the source.
    ++rmbStats_.blockedAborts;
    if (tracing()) {
        obs::TraceEvent e =
            busEvent(obs::EventKind::Nack, bus, here, gap);
        e.a = obs::kNackNoSegment;
        emitTrace(e);
    }
    startTeardown(bus, BusState::NackTeardown);
}

void
CycleKernelEngine::acceptAtDestination(KBus &bus)
{
    Pe &pe = pes_[bus.dst];
    pe.activeReceives.push_back(bus.message);
    bus.state = BusState::AwaitHack;
    // Leaving Advancing frees the head hop to move (Figure 7 pins
    // an advancing head); this is the one movability change with no
    // plane mutation, so note it for the no-move make-skip.
    planes_.bumpEpoch();
    const auto path = static_cast<sim::Tick>(bus.hops.size());
    rmb_assert(bus.hops.size() == pathLength(bus),
               "accepted bus spans ", bus.hops.size(),
               " gaps, expected ", pathLength(bus));
    const auto slot =
        planes_.ownerSlot(bus.srcGap(), bus.hops.front().level);
    scheduleAction(path * config_.ackHopDelay, Action::HackArrive,
                   slot, bus.gen);
}

void
CycleKernelEngine::hackArriveAtSource(std::uint32_t slot)
{
    KBus &bus = pool_[slot];
    rmb_assert(bus.state == BusState::AwaitHack,
               "Hack arrived on a bus in state ",
               static_cast<int>(bus.state));
    bus.state = BusState::Streaming;
    noteEstablished(messageRef(bus.message));
    noteCircuit(+1);

    // Closed-form pipelined streaming (detailedFlits is refused by
    // validate() for this engine): the source emits payload+FF
    // flits one flitDelay apart, and the final flit drains through
    // hops.size() stages.
    const net::Message &m = message(bus.message);
    const auto path = static_cast<sim::Tick>(bus.hops.size());
    const sim::Tick duration =
        (static_cast<sim::Tick>(m.payloadFlits) + 1) *
            config_.flitDelay +
        path * config_.flitDelay;
    scheduleAction(duration, Action::FinalFlit, slot, bus.gen);
}

void
CycleKernelEngine::finalFlitArrive(std::uint32_t slot)
{
    KBus &bus = pool_[slot];
    rmb_assert(bus.state == BusState::Streaming,
               "FF arrived on a non-streaming bus");
    noteDelivered(messageRef(bus.message),
                  static_cast<std::uint32_t>(bus.hops.size()));
    noteCircuit(-1);
    pes_[bus.dst].releaseReceive(bus.message);

    auto sev = severedAt_.find(bus.message);
    if (sev != severedAt_.end()) {
        ++rmbStats_.messagesRecovered;
        rmbStats_.recoveryLatency.add(
            static_cast<double>(simulator().now() - sev->second));
        rmbStats_.recoveryLatencyHist.add(simulator().now() -
                                          sev->second);
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
CycleKernelEngine::startTeardown(KBus &bus, BusState kind)
{
    rmb_assert(isTeardown(kind), "bad teardown kind");
    bus.state = kind;
    // Invalidate every in-flight header/Hack/FF action of this
    // life; the teardown walk runs on the new generation.
    ++bus.gen;
    if (tracing()) {
        obs::TraceEvent e = busEvent(obs::EventKind::Teardown, bus,
                                     bus.headNode);
        e.a = kind == BusState::FackTeardown   ? obs::kTeardownFack
              : kind == BusState::NackTeardown ? obs::kTeardownNack
                                               : obs::kTeardownFault;
        emitTrace(e);
    }
    const auto slot = planes_.ownerSlot(bus.srcGap(),
                                        bus.hops.front().level);
    scheduleAction(config_.ackHopDelay, Action::TeardownStep, slot,
                   bus.gen);
}

void
CycleKernelEngine::teardownStep(std::uint32_t slot)
{
    KBus &bus = pool_[slot];
    rmb_assert(isTeardown(bus.state),
               "teardown step on a live bus");
    rmb_assert(!bus.hops.empty(), "teardown of an empty bus");

    const Hop hop = bus.hops.back();
    bus.hops.pop_back();
    ++bus.hopsFreed;

    if (!bus.hops.empty()) {
        if (hop.inMove())
            releaseSegment(slot, hop.gap, hop.dualLevel,
                           obs::kFreeTeardown);
        releaseSegment(slot, hop.gap, hop.level,
                       obs::kFreeTeardown);
        scheduleAction(config_.ackHopDelay, Action::TeardownStep,
                       slot, pool_[slot].gen);
        return;
    }
    busFinished(slot, hop);
}

void
CycleKernelEngine::busFinished(std::uint32_t slot,
                               const Hop &last_hop)
{
    // Retire the bus *before* releasing its final (source-gap)
    // segments, mirroring the event engine: release wakeups must
    // never observe a live bus with no hops.
    KBus &bus = pool_[slot];
    const net::NodeId src = bus.src;
    const net::MessageId mid = bus.message;
    const VirtualBusId bid = bus.id;
    const BusState kind = bus.state;
    const sim::Tick injected_at = bus.injectedAt;
    const bool top_released = bus.topReleased;
    const sim::Tick now = simulator().now();
    rmb_assert(last_hop.gap == bus.srcGap(),
               "teardown must end at the source gap");
    --liveBuses_;
    rmbStats_.liveBuses.adjust(now, -1);
    pool_.retire(slot);

    Pe &pe = pes_[src];
    pe.releaseSend(mid);

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
    const auto lastFree = [&](GapId gap, Level level) {
        planes_.release(gap, level, slot, now);
        if (tracing()) {
            obs::TraceEvent e;
            e.kind = obs::EventKind::SegmentFree;
            e.at = now;
            e.message = mid;
            e.bus = bid;
            e.node = gap;
            e.gap = gap;
            e.level = level;
            e.a = obs::kFreeTeardown;
            emitTrace(e);
        }
        if (!planes_.faulted(gap, level))
            segmentFreed(gap, level);
    };
    if (last_hop.inMove())
        lastFree(last_hop.gap, last_hop.dualLevel);
    lastFree(last_hop.gap, last_hop.level);
    tryInject(src);
}

void
CycleKernelEngine::scheduleRetry(net::NodeId node,
                                 net::MessageId msg)
{
    sim::Tick backoff = rng_.uniformRange(config_.retryBackoffMin,
                                          config_.retryBackoffMax);
    if (config_.exponentialBackoff) {
        const std::uint32_t shift =
            std::min(message(msg).retries, 16u);
        if ((backoff << shift) >= config_.retryBackoffCap) {
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
    scheduleAction(backoff, Action::TryInject, node, 0);
}

void
CycleKernelEngine::releaseSegment(std::uint32_t bus_slot, GapId gap,
                                  Level level, std::uint64_t reason)
{
    KBus &bus = pool_[bus_slot];
    const auto slot = planes_.ownerSlot(gap, level);
    planes_.release(gap, level, slot, simulator().now());
    if (tracing()) {
        obs::TraceEvent e = busEvent(obs::EventKind::SegmentFree,
                                     bus, gap, gap, level);
        e.a = reason;
        emitTrace(e);
    }
    if (!bus.topReleased && gap == bus.srcGap() &&
        level == static_cast<Level>(config_.numBuses) - 1) {
        bus.topReleased = true;
        rmbStats_.topReleaseLatency.add(static_cast<double>(
            simulator().now() - bus.injectedAt));
    }
    // Last: the wakeup may grow pool_ and move `bus`.
    if (!planes_.faulted(gap, level))
        segmentFreed(gap, level);
}

void
CycleKernelEngine::segmentFreed(GapId gap, Level level)
{
    // No Wait-mode waiter lists in this engine; the only wakeup is
    // a freed top segment letting the local PE inject.
    if (level == static_cast<Level>(config_.numBuses) - 1)
        tryInject(gap);
}

// ----------------------------------------------------------------
// Compaction cycle
// ----------------------------------------------------------------

void
CycleKernelEngine::armCycle()
{
    if (!config_.enableCompaction || cycleArmed_)
        return;
    cycleArmed_ = true;
    cycleQuiet_ = false;
    nextMakeAt_ = simulator().now() + period_;
    if (processing_ == kNever)
        ensureWake(nextMakeAt_);
}

void
CycleKernelEngine::exitQuietCycles(sim::Tick now)
{
    cycleQuiet_ = false;
    if (!cycleArmed_)
        return;
    if (nextMakeAt_ < now) {
        // Every make slept through ran against the unchanged quiet
        // epoch, i.e. was a proven no-op; account for the cycles at
        // their cadence and resume at the first make >= now.
        const std::uint64_t j = (now - 1 - nextMakeAt_) / period_ + 1;
        cycleIndex_ += j;
        rmbStats_.cycleFlips += j * config_.numNodes;
        nextMakeAt_ += j * period_;
    }
    if (processing_ == kNever)
        ensureWake(nextMakeAt_);
}

void
CycleKernelEngine::makeStep(sim::Tick now)
{
    rmb_assert(moveRecords_.empty(),
               "make step with pending break records");
    if (planes_.occupiedCount() == 0) {
        // Idle ring: pause the cycle clock; the next injection
        // re-arms it.  (Compaction over an empty grid is a no-op,
        // so skipping cycles is outcome-neutral.)
        cycleArmed_ = false;
        nextMakeAt_ = kNever;
        return;
    }

    const int c = static_cast<int>(cycleIndex_ % 2);
    if (!tracing() && noMoveEpoch_[c] == planes_.epoch()) {
        // The grid is bit-identical to a same-parity cycle that
        // found nothing to move, so this pass would too.  Keep the
        // cycle accounting and skip the scan.  (Disabled while
        // tracing so per-cycle CycleFlip events stay complete.)
        ++cycleIndex_;
        rmbStats_.cycleFlips += config_.numNodes;
        nextMakeAt_ = now + period_;
        if (noMoveEpoch_[0] == planes_.epoch() &&
            noMoveEpoch_[1] == planes_.epoch()) {
            cycleQuiet_ = true;
            quietEpoch_ = planes_.epoch();
        }
        return;
    }
    // Scope only the real scan: the idle-ring and unchanged-epoch
    // exits above run in a few instructions each and fire for most
    // cycles of a sustained stream, so a scope there would cost more
    // than the path it measures (the bench_microperf overhead gate
    // enforces this).
    RMB_PROF_SCOPE_SAMPLED("kernel.make_pass");
    const auto k = static_cast<Level>(config_.numBuses);
    const std::uint32_t words = planes_.wordsPerLevel();
    for (Level l = 1; l < k; ++l) {
        // Gap g considers its levels of parity (g + c) mod 2 this
        // cycle (the per-INC FSM schedule), so level l is in play
        // exactly at gaps of parity (l + c) mod 2.
        const int gap_parity = static_cast<int>(
            (static_cast<std::uint64_t>(l) + c) % 2);
        for (std::uint32_t w = 0; w < words; ++w) {
            std::uint64_t cand =
                planes_.occWord(l, w) &
                planes_.parityWord(gap_parity, w) &
                ~(planes_.occWord(l - 1, w) |
                  planes_.faultyWord(l - 1, w));
            while (cand != 0) {
                const int b = std::countr_zero(cand);
                cand &= cand - 1;
                const GapId g = w * 64 +
                                static_cast<std::uint32_t>(b);
                const std::uint32_t slot = planes_.ownerSlot(g, l);
                rmb_assert(slot != kernel::kNoSlot,
                           "occupancy bit with no owner");
                KBus &bus = pool_[slot];
                const std::size_t idx = hopIndexAt(bus, g);
                if (idx >= bus.hops.size())
                    continue; // freed region of a tearing-down bus
                Hop &hop = bus.hops[idx];
                rmb_assert(hop.gap == g,
                           "hop/gap bookkeeping mismatch");
                if (hop.level != l)
                    continue; // l is a mid-move dual target
                if (!hopMovableRule(bus, idx,
                                    [this](GapId gg, Level ll) {
                                        return isFree(gg, ll);
                                    })) {
                    continue;
                }
                planes_.occupy(g, l - 1, slot, now);
                hop.dualLevel = l - 1;
                ++hop.moveSeq;
                if (tracing()) {
                    obs::TraceEvent e =
                        busEvent(obs::EventKind::CompactionMake,
                                 bus, g, g, l);
                    e.a = static_cast<std::uint64_t>(l - 1);
                    e.b = hop.moveSeq;
                    emitTrace(e);
                }
                moveRecords_.push_back(
                    MoveRecord{slot, bus.id, g, l, l - 1});
            }
        }
    }

    if (moveRecords_.empty()) {
        noMoveEpoch_[c] = planes_.epoch();
        if (!tracing() && noMoveEpoch_[1 - c] == planes_.epoch()) {
            cycleQuiet_ = true;
            quietEpoch_ = planes_.epoch();
        }
    }
    ++cycleIndex_;
    // Every INC flips once per global cycle; skew stays 0.
    rmbStats_.cycleFlips += config_.numNodes;
    if (tracing()) {
        for (net::NodeId i = 0; i < config_.numNodes; ++i) {
            obs::TraceEvent e;
            e.kind = obs::EventKind::CycleFlip;
            e.at = now;
            e.node = i;
            e.gap = i;
            e.a = cycleIndex_;
            emitTrace(e);
        }
    }
    nextBreakAt_ =
        moveRecords_.empty() ? kNever : now + period_ / 2;
    nextMakeAt_ = now + period_;
}

void
CycleKernelEngine::breakStep(sim::Tick)
{
    RMB_PROF_SCOPE_SAMPLED("kernel.compaction_break");
    for (const MoveRecord &r : moveRecords_) {
        KBus &bus = pool_[r.slot];
        if (!bus.live || bus.id != r.bus)
            continue; // fully torn down since the make step
        const std::size_t idx = hopIndexAt(bus, r.gap);
        if (idx >= bus.hops.size())
            continue; // hop already freed by a travelling ack
        Hop &hop = bus.hops[idx];
        if (!hop.inMove() || hop.dualLevel != r.toLevel ||
            hop.level != r.fromLevel) {
            continue; // stale record (move cancelled by a sever)
        }
        if (planes_.faulted(r.gap, r.toLevel))
            continue; // target faulted between make and break
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
        releaseSegment(r.slot, r.gap, r.fromLevel,
                       obs::kFreeCompaction);
    }
    moveRecords_.clear();
    nextBreakAt_ = kNever;
}

// ----------------------------------------------------------------
// Fault injection and recovery
// ----------------------------------------------------------------

void
CycleKernelEngine::failSegment(GapId gap, Level level)
{
    const std::uint32_t occupant = planes_.ownerSlot(gap, level);
    if (occupant != kernel::kNoSlot && !config_.transientFaults) {
        panic("failSegment(", gap, ",", level, "): can only fault a"
              " free segment while transient faults are disabled,"
              " and level ", level, " of gap ", gap,
              " is held by virtual bus ", pool_[occupant].id,
              "; set RmbConfig::transientFaults to sever live"
              " buses");
    }
    planes_.markFaulty(gap, level, simulator().now());
    ++rmbStats_.faultsInjected;
    if (tracing()) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::SegmentFail;
        e.at = simulator().now();
        e.node = gap;
        e.gap = gap;
        e.level = level;
        e.a = occupant == kernel::kNoSlot ? 0
                                          : pool_[occupant].id;
        emitTrace(e);
    }
    if (occupant != kernel::kNoSlot)
        severOccupant(gap, level, occupant);
    if (cycleQuiet_)
        exitQuietCycles(simulator().now());
    checkAfterMutation();
}

void
CycleKernelEngine::repairSegment(GapId gap, Level level)
{
    planes_.clearFault(gap, level, simulator().now());
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
    if (planes_.ownerSlot(gap, level) == kernel::kNoSlot)
        segmentFreed(gap, level);
    if (cycleQuiet_)
        exitQuietCycles(simulator().now());
    checkAfterMutation();
}

void
CycleKernelEngine::severOccupant(GapId gap, Level level,
                                 std::uint32_t slot)
{
    KBus &bus = pool_[slot];
    if (isTeardown(bus.state))
        return; // the walking Fack/Nack will release it anyway

    const std::size_t idx = hopIndexAt(bus, gap);
    rmb_assert(idx < bus.hops.size(),
               "faulted segment held by a hop out of range");
    Hop &hop = bus.hops[idx];
    rmb_assert(hop.gap == gap, "hop/gap bookkeeping mismatch");

    if (hop.inMove() && level == hop.dualLevel) {
        // Fault hit the make-before-break *target*: cancel the move
        // and stay on the (live) old level; the pending break
        // record goes stale via inMove().
        planes_.release(gap, level, slot, simulator().now());
        if (tracing()) {
            obs::TraceEvent e =
                busEvent(obs::EventKind::SegmentFree, bus, gap,
                         gap, level);
            e.a = obs::kFreeMoveCancel;
            emitTrace(e);
        }
        hop.dualLevel = kNoLevel;
        return;
    }
    if (hop.inMove() && level == hop.level) {
        // Fault hit the *old* level mid-move: the lower segment
        // already carries the signal, so complete the move early.
        planes_.release(gap, level, slot, simulator().now());
        if (tracing()) {
            obs::TraceEvent e =
                busEvent(obs::EventKind::SegmentFree, bus, gap,
                         gap, level);
            e.a = obs::kFreeMoveCancel;
            emitTrace(e);
        }
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
CycleKernelEngine::severBus(KBus &bus, std::uint64_t reason)
{
    rmb_assert(!isTeardown(bus.state),
               "sever of a bus already tearing down");
    const sim::Tick now = simulator().now();

    switch (bus.state) {
    case BusState::AwaitHack:
        pes_[bus.dst].releaseReceive(bus.message);
        break;
    case BusState::Streaming:
        pes_[bus.dst].releaseReceive(bus.message);
        noteCircuit(-1);
        // The re-injected header starts a fresh circuit; in-flight
        // FF actions die against the generation bump.
        messageRef(bus.message).state = net::MessageState::Setup;
        break;
    default:
        break; // Advancing: the in-flight header action goes stale
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
CycleKernelEngine::writeOff(net::Message &m,
                            obs::DeadLetterReason reason)
{
    auto sev = severedAt_.find(m.id);
    if (sev != severedAt_.end()) {
        ++rmbStats_.messagesLost;
        severedAt_.erase(sev);
    }
    deadLetterMessage(m, rmbStats_, reason);
}

std::uint64_t
CycleKernelEngine::progressStamp(net::MessageId id) const
{
    std::uint64_t h = Engine::progressStamp(id);
    const auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 1099511628211ull;
    };
    for (const KBus &b : pool_.slots()) {
        if (!b.live || b.message != id)
            continue;
        mix(b.id);
        mix(static_cast<std::uint64_t>(b.state));
        mix(b.gen);
        mix(b.hops.size());
        mix(b.headNode);
    }
    return h;
}

bool
CycleKernelEngine::rescueStalled(net::MessageId id)
{
    net::Message &m = messageRef(id);
    if (m.state == net::MessageState::Delivered ||
        m.state == net::MessageState::Failed) {
        return false;
    }
    for (const KBus &b : pool_.slots()) {
        if (b.live && b.message == id) {
            // Bus-carried messages always progress on their own: the
            // timing wheel cannot lose actions and closed-form
            // streaming is one pre-scheduled action.
            return false;
        }
    }
    // Queued (or between teardown and retry): the only unrecoverable
    // silence is a route that permanent damage has cut.
    if (!routeDead(m.src, m.dst))
        return false;
    Pe &pe = pes_[m.src];
    auto it =
        std::find(pe.sendQueue.begin(), pe.sendQueue.end(), id);
    if (it == pe.sendQueue.end())
        return false; // requeue still pending; look again
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
    return true;
}

// ----------------------------------------------------------------
// Invariant auditing
// ----------------------------------------------------------------

void
CycleKernelEngine::auditInvariants() const
{
    const std::uint32_t n = config_.numNodes;
    const auto k = static_cast<Level>(config_.numBuses);

    std::uint64_t claimed = 0;
    std::uint64_t live_seen = 0;
    for (std::uint32_t slot = 0; slot < pool_.size(); ++slot) {
        const KBus &bus = pool_[slot];
        if (!bus.live)
            continue;
        ++live_seen;
        rmb_assert(!bus.hops.empty(), "live bus ", bus.id,
                   " with no hops");
        rmb_assert(bus.hops.size() + bus.hopsFreed <=
                       pathLength(bus),
                   "bus ", bus.id, " longer than its path");
        for (std::size_t i = 0; i < bus.hops.size(); ++i) {
            const Hop &hop = bus.hops[i];
            rmb_assert(hop.gap == (bus.srcGap() + i) % n, "bus ",
                       bus.id, " hop ", i, " at wrong gap");
            rmb_assert(hop.level >= 0 && hop.level < k, "bus ",
                       bus.id, " level out of range");
            rmb_assert(planes_.ownerSlot(hop.gap, hop.level) ==
                           slot,
                       "grid does not record bus ", bus.id,
                       " at (", hop.gap, ",", hop.level, ")");
            ++claimed;
            if (hop.inMove()) {
                rmb_assert(hop.dualLevel == hop.level - 1,
                           "moves must go exactly one level down");
                rmb_assert(planes_.ownerSlot(hop.gap,
                                             hop.dualLevel) ==
                               slot,
                           "dual segment not recorded");
                ++claimed;
            }
            if (i > 0) {
                const Hop &prev = bus.hops[i - 1];
                rmb_assert(!(prev.inMove() && hop.inMove()),
                           "adjacent hops of bus ", bus.id,
                           " moving concurrently");
                for (Level a : {prev.level, prev.dualLevel}) {
                    if (a == kNoLevel)
                        continue;
                    for (Level b : {hop.level, hop.dualLevel}) {
                        if (b == kNoLevel)
                            continue;
                        rmb_assert(a - b <= 1 && b - a <= 1,
                                   "bus ", bus.id,
                                   " kinked at gap ", hop.gap,
                                   ": levels ", a, " -> ", b);
                    }
                }
                // Table-1 legality of the derived status code:
                // sourceDirOf panics unless the live input levels
                // are adjacent to this output level.
                StatusRegister reg;
                if (prev.inMove()) {
                    reg.connect(
                        sourceDirOf(prev.level, hop.level));
                    reg.connect(
                        sourceDirOf(prev.dualLevel, hop.level));
                } else {
                    reg.connect(
                        sourceDirOf(prev.level, hop.level));
                }
            }
        }
        if (bus.state == BusState::AwaitHack ||
            bus.state == BusState::Streaming) {
            rmb_assert(bus.hops.size() == pathLength(bus),
                       "established bus ", bus.id,
                       " does not span its path");
        }
        rmb_assert(bus.state != BusState::Blocked,
                   "kernel engine cannot produce Blocked buses");
    }
    rmb_assert(live_seen == liveBuses_, "pool shows ", live_seen,
               " live buses but the census counts ", liveBuses_);
    rmb_assert(claimed == planes_.occupiedCount(), "grid claims ",
               planes_.occupiedCount(), " segments but buses own ",
               claimed, " (plus ", planes_.faultyCount(),
               " faulted)");

    std::uint32_t faulted_seen = 0;
    for (GapId g = 0; g < n; ++g) {
        for (Level l = 0; l < k; ++l) {
            const std::uint32_t slot = planes_.ownerSlot(g, l);
            rmb_assert(planes_.occupied(g, l) ==
                           (slot != kernel::kNoSlot),
                       "occupancy plane out of sync with the owner"
                       " grid at (", g, ",", l, ")");
            if (!planes_.faulted(g, l))
                continue;
            ++faulted_seen;
            rmb_assert(!planes_.isFree(g, l), "faulted segment (",
                       g, ",", l, ") reads as free");
            if (slot == kernel::kNoSlot)
                continue;
            const KBus &owner = pool_[slot];
            rmb_assert(owner.live, "faulted segment (", g, ",", l,
                       ") held by dead slot ", slot);
            rmb_assert(isTeardown(owner.state), "bus ", owner.id,
                       " holds faulted segment (", g, ",", l,
                       ") but is not tearing down (state ",
                       static_cast<int>(owner.state), ")");
        }
    }
    rmb_assert(faulted_seen == planes_.faultyCount(),
               "fault plane shows ", faulted_seen,
               " faulted segments but the census counts ",
               planes_.faultyCount());
}

} // namespace core
} // namespace rmb
