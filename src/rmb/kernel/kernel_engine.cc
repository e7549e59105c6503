#include "rmb/kernel/kernel_engine.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "obs/prof.hh"
#include "rmb/compaction_rules.hh"
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
    : ProtocolCore(simulator, "RMB(kernel)", kernelValidated(config))
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

    startFaults();
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
    if (cycleQuiet_ && segs_.epoch() != quietEpoch_)
        exitQuietCycles(now);

    // Cycle steps after the tick's protocol actions: break (armed
    // half a period before) strictly precedes the next make.
    if (nextBreakAt_ == now)
        breakStep(now);
    if (cycleArmed_ && nextMakeAt_ == now)
        makeStep(now);

    processing_ = kNever;
    // Full verification audits once per processed tick (the kernel's
    // observable unit), not per mutation like the event engine - the
    // intermediate states inside a tick are the same ones the event
    // engine reaches between events.
    checkAfterMutation();
}

void
CycleKernelEngine::dispatch(const Action &a)
{
    if (a.kind == Action::TryInject) {
        tryInject(a.slot);
        return;
    }
    VirtualBus &bus = pool_[a.slot];
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
        finalFlitArrive(bus);
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

net::NodeId
CycleKernelEngine::effectiveDst(const VirtualBus &bus) const
{
    if (mutation_ != TestMutation::ShortCircuit)
        return bus.dst;
    const std::uint32_t n = config_.numNodes;
    if (ringDistance(bus.src, bus.dst, n) <= 1)
        return bus.dst; // a one-hop path cannot be shortened
    return ringPrev(bus.dst, n);
}

std::uint32_t
CycleKernelEngine::pathLength(const VirtualBus &bus) const
{
    return ringDistance(bus.src, effectiveDst(bus), config_.numNodes);
}

// ----------------------------------------------------------------
// Protocol steps
// ----------------------------------------------------------------

void
CycleKernelEngine::headerArrive(std::uint32_t slot)
{
    VirtualBus &bus = pool_[slot];
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
    VirtualBus &bus = pool_[slot];
    rmb_assert(bus.state == BusState::Advancing,
               "tryAdvance on a bus in state ",
               static_cast<int>(bus.state));
    const net::NodeId here = bus.headNode;
    const GapId gap = here;

    // Fault lookahead, mirroring the event engine: skip output
    // levels from which every onward level of the next gap is
    // faulted, unless only dead ends are free.
    const GapId next_gap = ringNext(here, config_.numNodes);
    const bool lookahead = segs_.faultyCount() > 0 &&
                           next_gap != effectiveDst(bus);
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
        segs_.occupy(gap, chosen, slot, simulator().now());
        bus.hops.push_back(Hop{gap, chosen, kNoLevel, 0});
        bus.headNode = next_gap;
        if (tracing())
            emitTrace(busEvent(obs::EventKind::HeaderHop, bus,
                               here, gap, chosen));
        scheduleHeaderArrive(bus);
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
CycleKernelEngine::acceptAtDestination(VirtualBus &bus)
{
    Pe &pe = pes_[bus.dst];
    pe.activeReceives.push_back(bus.message);
    bus.state = BusState::AwaitHack;
    // Leaving Advancing frees the head hop to move (Figure 7 pins
    // an advancing head); this is the one movability change with no
    // plane mutation, so note it for the no-move make-skip.
    segs_.bumpEpoch();
    const auto path = static_cast<sim::Tick>(bus.hops.size());
    rmb_assert(bus.hops.size() == pathLength(bus),
               "accepted bus spans ", bus.hops.size(),
               " gaps, expected ", pathLength(bus));
    scheduleAction(path * config_.ackHopDelay, Action::HackArrive,
                   bus.slot, bus.gen);
}

void
CycleKernelEngine::hackArriveAtSource(std::uint32_t slot)
{
    VirtualBus &bus = pool_[slot];
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
    if (segs_.occupiedCount() == 0) {
        // Idle ring: pause the cycle clock; the next injection
        // re-arms it.  (Compaction over an empty grid is a no-op,
        // so skipping cycles is outcome-neutral.)
        cycleArmed_ = false;
        nextMakeAt_ = kNever;
        return;
    }

    const int c = static_cast<int>(cycleIndex_ % 2);
    if (!tracing() && noMoveEpoch_[c] == segs_.epoch()) {
        // The grid is bit-identical to a same-parity cycle that
        // found nothing to move, so this pass would too.  Keep the
        // cycle accounting and skip the scan.  (Disabled while
        // tracing so per-cycle CycleFlip events stay complete.)
        ++cycleIndex_;
        rmbStats_.cycleFlips += config_.numNodes;
        nextMakeAt_ = now + period_;
        if (noMoveEpoch_[0] == segs_.epoch() &&
            noMoveEpoch_[1] == segs_.epoch()) {
            cycleQuiet_ = true;
            quietEpoch_ = segs_.epoch();
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
    const std::uint32_t words = segs_.wordsPerLevel();
    for (Level l = 1; l < k; ++l) {
        // Gap g considers its levels of parity (g + c) mod 2 this
        // cycle (the per-INC FSM schedule), so level l is in play
        // exactly at gaps of parity (l + c) mod 2.
        const int gap_parity = static_cast<int>(
            (static_cast<std::uint64_t>(l) + c) % 2);
        for (std::uint32_t w = 0; w < words; ++w) {
            std::uint64_t cand =
                segs_.occWord(l, w) &
                segs_.parityWord(gap_parity, w) &
                ~(segs_.occWord(l - 1, w) |
                  segs_.faultyWord(l - 1, w));
            while (cand != 0) {
                const int b = std::countr_zero(cand);
                cand &= cand - 1;
                const GapId g = w * 64 +
                                static_cast<std::uint32_t>(b);
                const std::uint32_t slot = segs_.ownerSlot(g, l);
                rmb_assert(slot != kernel::kNoSlot,
                           "occupancy bit with no owner");
                VirtualBus &bus = pool_[slot];
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
                                        return segs_.isFree(gg, ll);
                                    })) {
                    continue;
                }
                segs_.occupy(g, l - 1, slot, now);
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
        noMoveEpoch_[c] = segs_.epoch();
        if (!tracing() && noMoveEpoch_[1 - c] == segs_.epoch()) {
            cycleQuiet_ = true;
            quietEpoch_ = segs_.epoch();
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
        VirtualBus &bus = pool_[r.slot];
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
        if (segs_.faulted(r.gap, r.toLevel))
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

std::uint64_t
CycleKernelEngine::progressStamp(net::MessageId id) const
{
    std::uint64_t h = Engine::progressStamp(id);
    const auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 1099511628211ull;
    };
    for (const VirtualBus &b : pool_.slots()) {
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

void
CycleKernelEngine::auditBus(const VirtualBus &bus) const
{
    rmb_assert(bus.state != BusState::Blocked,
               "kernel engine cannot produce Blocked buses");
}

} // namespace core
} // namespace rmb
