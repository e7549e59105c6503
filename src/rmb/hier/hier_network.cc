#include "rmb/hier/hier_network.hh"

#include <algorithm>

#include "common/env.hh"
#include "common/logging.hh"
#include "obs/prof.hh"
#include "rmb/fault.hh"

namespace rmb {
namespace hier {

namespace {

/** Stream id of the constituent-ring seed substreams. */
constexpr std::uint64_t kRingSeedStream = 0x10ca1;

/** Stream id of the per-bridge deflection-backoff substreams. */
constexpr std::uint64_t kBridgeStream = 0xb71d9e;

core::RmbConfig
subConfig(const core::RmbConfig &parent, std::uint32_t ring,
          std::uint32_t nodes, std::uint32_t buses)
{
    core::RmbConfig sub = parent;
    sub.topology = core::TopologyKind::Flat;
    sub.numNodes = nodes;
    sub.numBuses = buses;
    sub.globalBuses = 0;
    // The parent owns the fault schedule (over the whole domain,
    // bridges included) and runs the delivery supervisor itself;
    // constituent rings run the bare protocol on the inherited
    // engine/verify/blocking options.
    sub.faultMtbf = 0;
    sub.faultBridgeProb = 0.0;
    sub.watchdogTimeout = 0;
    sub.shardJobs = 1;
    sub.seed = HierNetwork::localRingSeed(parent, ring);
    return sub;
}

} // namespace

std::uint64_t
HierNetwork::localRingSeed(const core::RmbConfig &config,
                           std::uint32_t ring)
{
    return sim::Random(config.seed)
        .split(kRingSeedStream + ring)
        .next();
}

HierNetwork::HierNetwork(sim::Simulator &simulator,
                         const core::RmbConfig &config)
    : core::Engine(simulator, "hier-rmb",
                   core::validatedEngineConfig(config).numNodes),
      config_(config),
      localRings_(config.localRings),
      ringSize_(config.numNodes / config.localRings),
      globalLevels_(config.globalBuses != 0 ? config.globalBuses
                                            : config.numBuses),
      bridgeLatency_(config.bridgeLatency),
      rmbStats_(metrics()),
      bridgeArrivals_(metrics().counter("hier.bridge.arrivals")),
      bridgeDepartures_(metrics().counter("hier.bridge.departures")),
      bridgeDeflections_(
          metrics().counter("hier.bridge.deflections")),
      bridgeOccupancy_(metrics().level("hier.bridge.occupancy")),
      runner_(config.shardJobs)
{
    const std::uint32_t total =
        localRings_ + (localRings_ > 1 ? 1 : 0);
    shards_.reserve(total);
    for (std::uint32_t s = 0; s < total; ++s) {
        const bool global = s == localRings_;
        auto shard = std::make_unique<Shard>();
        shard->engine = core::makeEngine(
            shard->sim,
            subConfig(config_, s, global ? localRings_ : ringSize_,
                      global ? globalLevels_ : config_.numBuses));
        shard->engine->setDeliveryCallback(
            [this, s](const net::Message &pm) {
                shards_[s]->outbox.push_back(
                    {pm.delivered, pm.id, false});
            });
        shard->engine->setFailureCallback(
            [this, s](const net::Message &pm) {
                shards_[s]->outbox.push_back(
                    {shards_[s]->sim.now(), pm.id, true});
            });
        next_.push_back(shard->sim.eventQueue().nextTick());
        shards_.push_back(std::move(shard));
    }

    if (localRings_ > 1) {
        bridges_.reserve(localRings_);
        const sim::Random root(config_.seed);
        for (std::uint32_t b = 0; b < localRings_; ++b)
            bridges_.push_back(
                Bridge{0, root.split(kBridgeStream + b)});
    }

    faultMirror_.assign(
        config_.numNodes * config_.numBuses +
            (localRings_ > 1 ? localRings_ * globalLevels_ : 0),
        0);

    if (config_.faultMtbf > 0) {
        // Same substream id as the flat engines: the schedule draws
        // from its own split so the fault storm never perturbs
        // protocol randomness, and it runs entirely on the parent
        // simulator so any shardJobs replays it identically.
        faults_ = std::make_unique<core::FaultSchedule>(
            *this,
            sim::Random(config_.seed).split(core::kFaultStream));
        faults_->start();
    }

    mutateHops_ = common::mutationHook("RMB_HIER_MUTATE");
}

HierNetwork::~HierNetwork() = default;

const core::Engine &
HierNetwork::ringEngine(std::uint32_t ring) const
{
    rmb_assert(ring < shards_.size(), "ring index out of range");
    syncClock(ring);
    return *shards_[ring]->engine;
}

net::MessageId
HierNetwork::send(net::NodeId src, net::NodeId dst,
                  std::uint32_t payload_flits)
{
    rmb_assert(src < numNodes() && dst < numNodes(),
               "send endpoint out of range");
    rmb_assert(src != dst, "self-messages are rejected earlier");

    net::Message &m = createMessage(src, dst, payload_flits);
    noteFirstAttempt(m);

    if (routeDead(src, dst)) {
        // Permanent damage has already cut every route this message
        // could take: write it off at the source instead of bouncing
        // legs off the wreckage (the flat engines' queue sweep, one
        // composition level up).
        deadLetterMessage(m, rmbStats_, obs::kDeadUnreachable);
        return m.id;
    }

    const std::uint32_t rs = src / ringSize_;
    const std::uint32_t rd = dst / ringSize_;
    const net::NodeId ls = src % ringSize_;
    const net::NodeId ld = dst % ringSize_;
    const sim::Tick now = simulator().now();

    Pending p;
    p.ours = m.id;
    p.src = src;
    p.dst = dst;
    if (rs == rd) {
        p.stage = Stage::Final;
        launchLeg(rs, ls, ld, payload_flits, now, p);
    } else if (ls != 0) {
        p.stage = Stage::LocalOut;
        launchLeg(rs, ls, 0, payload_flits, now, p);
    } else {
        // The source is its ring's bridge node: the message starts
        // at the bridge.  The admission offer goes through the
        // deferred queue so the barrier processes it in global time
        // order with every other bridge transaction.
        p.stage = Stage::LocalOut;
        offers_.push(Offer{now, offerSeq_++, rs, p});
    }
    ensureArmed();
    superviseActivity();
    return m.id;
}

template <typename Fn>
void
HierNetwork::scheduleOnShard(std::uint32_t s, sim::Tick at, Fn &&fn)
{
    syncClock(s);
    Shard &sh = *shards_[s];
    // The conservative window guarantees at >= the shard clock in
    // the steady state; the clamp covers offer-driven legs whose
    // admission time predates the current window (docs/HIERARCHY.md).
    const sim::Tick when = std::max(at, sh.sim.now());
    sh.sim.scheduleAt(when, std::forward<Fn>(fn));
    next_[s] = std::min(next_[s], when);
}

void
HierNetwork::launchLeg(std::uint32_t shard, net::NodeId src,
                       net::NodeId dst,
                       std::uint32_t payload_flits, sim::Tick at,
                       Pending pending)
{
    scheduleOnShard(
        shard, at, [this, shard, src, dst, payload_flits, pending] {
            Shard &s = *shards_[shard];
            const net::MessageId leg =
                s.engine->send(src, dst, payload_flits);
            s.legs.emplace(leg, pending);
        });
}

void
HierNetwork::processRecord(std::uint32_t shard,
                           const OutRecord &rec)
{
    Shard &sh = *shards_[shard];
    auto it = sh.legs.find(rec.leg);
    if (it == sh.legs.end()) {
        // The delivery supervisor dead-lettered the parent message
        // and orphaned this leg; its completion is dropped.
        rmb_assert(sh.orphans.erase(rec.leg) == 1,
                   "shard completed an unmapped leg");
        return;
    }
    Pending p = it->second;
    sh.legs.erase(it);

    const net::Message &pm = sh.engine->message(rec.leg);
    net::Message &m = messageRef(p.ours);
    m.nacks += pm.nacks;
    m.retries += pm.retries;
    stats_.nacks += pm.nacks;
    stats_.retries += pm.retries;

    const std::uint32_t rs = p.src / ringSize_;
    const std::uint32_t rd = p.dst / ringSize_;

    if (rec.failed) {
        // A leg exhausted its bounded retries.  Any bridge slot the
        // message still holds (from the admission that launched this
        // leg) is returned before the message is written off.
        if (p.stage == Stage::Global)
            releaseBridge(rs, p, rec.at);
        else if (p.stage == Stage::LocalIn)
            releaseBridge(rd, p, rec.at);
        deadLetterMessage(m, rmbStats_,
                          obs::kDeadRetriesExhausted);
        return;
    }

    p.hops += pm.pathHops;
    switch (p.stage) {
      case Stage::Final:
        finish(p, rec.at, pm.established);
        break;
      case Stage::LocalOut:
        offerToBridge(rs, p, rec.at);
        break;
      case Stage::Global:
        releaseBridge(rs, p, rec.at);
        if (p.dst % ringSize_ == 0) {
            // The destination is ring rd's bridge node itself; the
            // global leg already delivered to it.
            finish(p, rec.at, pm.established);
        } else {
            offerToBridge(rd, p, rec.at);
        }
        break;
      case Stage::LocalIn:
        releaseBridge(rd, p, rec.at);
        finish(p, rec.at, pm.established);
        break;
    }
}

void
HierNetwork::offerToBridge(std::uint32_t bridge, Pending pending,
                           sim::Tick at)
{
    RMB_PROF_SCOPE("hier.bridge_exchange");
    Bridge &br = bridges_[bridge];
    if (br.dead && br.permanent) {
        // The bridge is gone for good: no amount of deflect-and-
        // retry will ever be admitted.  An offer holds no buffer
        // slot, so the write-off is pure accounting.
        deadLetterMessage(messageRef(pending.ours), rmbStats_,
                          obs::kDeadBridgeDead);
        return;
    }
    if (!br.dead && br.occupancy < config_.bridgeBuffer) {
        ++br.occupancy;
        ++bridgeArrivals_;
        bridgeOccupancy_.adjust(at, +1);
        pending.deflects = 0;
        if (!mutateHops_)
            ++pending.hops; // the bridge traversal itself
        emitBridgeEvent(obs::EventKind::BridgeArrive, bridge,
                        pending, at, br.occupancy);
        const std::uint32_t flits =
            messageRef(pending.ours).payloadFlits;
        if (pending.stage == Stage::LocalOut) {
            // Onto the global ring: bridge rs -> bridge rd.
            pending.stage = Stage::Global;
            launchLeg(globalShard(), bridge,
                      pending.dst / ringSize_, flits,
                      at + bridgeLatency_, pending);
        } else {
            // Off the global ring, into the destination ring.
            pending.stage = Stage::LocalIn;
            launchLeg(pending.dst / ringSize_, 0,
                      pending.dst % ringSize_, flits,
                      at + bridgeLatency_, pending);
        }
        return;
    }

    // Buffer full (or the bridge transiently out of service):
    // deflect.  The message re-enters the Nack/backoff machinery -
    // the source-retry law (retryBackoff), jittered from the
    // bridge's own substream so colliding messages cannot
    // phase-lock.
    ++bridgeDeflections_;
    net::Message &m = messageRef(pending.ours);
    ++m.nacks;
    ++stats_.nacks;
    ++m.retries;
    ++stats_.retries;
    const sim::Tick backoff =
        core::retryBackoff(br.rng, config_, pending.deflects);
    ++pending.deflects;
    emitBridgeEvent(obs::EventKind::BridgeDeflect, bridge, pending,
                    at, backoff);
    offers_.push(
        Offer{at + backoff, offerSeq_++, bridge, pending});
}

void
HierNetwork::releaseBridge(std::uint32_t bridge, const Pending &p,
                           sim::Tick at)
{
    Bridge &br = bridges_[bridge];
    rmb_assert(br.occupancy > 0,
               "bridge slot released while empty");
    --br.occupancy;
    ++bridgeDepartures_;
    bridgeOccupancy_.adjust(at, -1);
    emitBridgeEvent(obs::EventKind::BridgeDepart, bridge, p, at,
                    br.occupancy);
}

void
HierNetwork::finish(Pending &pending, sim::Tick at,
                    sim::Tick established)
{
    net::Message &m = messageRef(pending.ours);
    m.established = established;
    stats_.setupLatency.add(
        static_cast<double>(m.established - m.firstAttempt));
    noteDelivered(m, pending.hops, at);
}

void
HierNetwork::emitBridgeEvent(obs::EventKind kind,
                             std::uint32_t bridge,
                             const Pending &pending, sim::Tick at,
                             std::uint64_t a)
{
    if (!tracing())
        return;
    obs::TraceEvent e;
    e.kind = kind;
    e.at = at;
    e.message = pending.ours;
    e.node = bridge * ringSize_; // the bridge's flat node id
    e.a = a;
    emitTrace(e);
}

// --- the conservative parallel executor ---

void
HierNetwork::ensureArmed()
{
    if (armed_)
        return;
    armed_ = true;
    simulator().scheduleAt(simulator().now(),
                           [this] { coordinate(); });
}

void
HierNetwork::syncClock(std::uint32_t s) const
{
    // A window dispatches only the shards with an event due by its
    // end; every other shard's clock stands for windowEnd_ without
    // being moved there.  Anything that schedules on a shard or calls
    // into its engine from the coordinator syncs first, so work is
    // always timed from the clock the shard would have had had every
    // window run it.
    Shard &sh = *shards_[s];
    if (sh.sim.now() >= windowEnd_)
        return;
    rmb_assert(next_[s] > windowEnd_,
               "shard ", s, " skipped a window with events due");
    sh.sim.runUntil(windowEnd_);
}

HierNetwork::Shard &
HierNetwork::touchShard(std::uint32_t s)
{
    syncClock(s);
    touched_.push_back(s);
    return *shards_[s];
}

sim::Tick
HierNetwork::windowCandidate()
{
    const sim::Tick tmin =
        *std::min_element(next_.begin(), next_.end());
    const sim::Tick offer_next =
        offers_.empty() ? sim::kMaxTick : offers_.top().at;
    if (tmin == sim::kMaxTick && offer_next == sim::kMaxTick)
        return sim::kMaxTick; // nothing left anywhere: disarm
    sim::Tick cand = offer_next;
    if (tmin != sim::kMaxTick)
        cand = std::min(cand, tmin + bridgeLatency_);
    // Never run a window past the next parent event: workload
    // injections and fault wrappers must observe shard clocks <= the
    // parent clock.
    return std::min(cand, simulator().eventQueue().nextTick());
}

void
HierNetwork::coordinate()
{
    const sim::Tick cand = windowCandidate();
    if (cand == sim::kMaxTick) {
        foldShardStats();
        armed_ = false;
        return;
    }
    const sim::Tick until = std::max(cand, simulator().now());
    runWindow(until);
    drainBarrier(until);
    foldShardStats();
    // Re-fire at the window end; a same-tick target means pending
    // parent events at this tick run first (FIFO) and the next
    // firing sees their effects.
    simulator().scheduleAt(until, [this] { coordinate(); });
}

void
HierNetwork::runWindow(sim::Tick until)
{
    // Every shard is an independent simulator advancing to the same
    // horizon; the Runner spreads them over shardJobs threads.  The
    // window schedule itself never depends on the job count, which
    // is what keeps results byte-identical for any --jobs.
    RMB_PROF_SCOPE("hier.window");
    // All shard clocks stand at windowEnd_ (syncClock); a window that
    // does not move past it runs nothing, so events at that very tick
    // wait for the next window, behind anything the parent adds.
    if (until <= windowEnd_)
        return;
    // Only shards with an event due by the horizon are dispatched;
    // an idle shard's run would only move its clock, which
    // windowEnd_ records for all of them at once.
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
        if (next_[s] <= until)
            ready_.push_back(s);
    }
    windowEnd_ = until;
    // A shard keeps its home worker from window to window, so its
    // state stays in one core's cache; idle workers take over the
    // rest of a lopsided window.
    runner_.forEach(
        ready_.size(),
        [this, until](std::size_t i) {
            // Runs on a Runner worker thread when --jobs > 1; the
            // profiler accumulates per thread and merges by name, so
            // shard time shows up whichever thread carried it.
            RMB_PROF_SCOPE("hier.shard_step");
            const std::uint32_t s = ready_[i];
            Shard &sh = *shards_[s];
            sh.sim.runUntil(until);
            next_[s] = sh.sim.eventQueue().nextTick();
        },
        [this](std::size_t i) { return ready_[i]; });
}

void
HierNetwork::drainBarrier(sim::Tick until)
{
    RMB_PROF_SCOPE("hier.drain_barrier");
    // Merge the per-shard outboxes and the due admission offers into
    // one globally time-ordered stream.  Outboxes are time-sorted
    // already (callbacks fire in event order); the stable sort keeps
    // shard-then-FIFO order among equal times.
    struct Ref
    {
        sim::Tick at;
        std::uint32_t shard;
        std::uint32_t idx;
    };
    // Only the shards that ran in the window or were driven by the
    // coordinator since the last barrier can hold records.
    if (!touched_.empty()) {
        ready_.insert(ready_.end(), touched_.begin(), touched_.end());
        touched_.clear();
        std::sort(ready_.begin(), ready_.end());
        ready_.erase(std::unique(ready_.begin(), ready_.end()),
                     ready_.end());
    }
    std::vector<Ref> refs;
    for (const std::uint32_t s : ready_) {
        const auto &outbox = shards_[s]->outbox;
        for (std::uint32_t i = 0; i < outbox.size(); ++i)
            refs.push_back(Ref{outbox[i].at, s, i});
    }
    std::stable_sort(refs.begin(), refs.end(),
                     [](const Ref &a, const Ref &b) {
                         return a.at < b.at;
                     });

    std::size_t i = 0;
    while (true) {
        const bool have_rec = i < refs.size();
        const bool have_offer =
            !offers_.empty() && offers_.top().at <= until;
        if (!have_rec && !have_offer)
            break;
        if (have_rec &&
            (!have_offer || refs[i].at <= offers_.top().at)) {
            const Ref &r = refs[i++];
            processRecord(r.shard, shards_[r.shard]->outbox[r.idx]);
        } else {
            const Offer o = offers_.top();
            offers_.pop();
            offerToBridge(o.bridge, o.pending, o.at);
        }
    }
    for (const std::uint32_t s : ready_)
        shards_[s]->outbox.clear();
}

void
HierNetwork::foldShardStats()
{
    // The parent's counters are the sums over every shard, kept as
    // running totals: a shard that neither ran nor was driven since
    // its last fold has nothing new to add.  The totals wrap exactly
    // like the sums they replace.  maxCycleSkew only ever grows, so
    // folding a shard twice is harmless.
    FoldedCounters &t = foldTotals_;
    const auto fold = [&](std::uint32_t s) {
        const core::RmbStats &ss = shards_[s]->engine->rmbStats();
        FoldedCounters &was = shards_[s]->folded;
        const FoldedCounters now{
            ss.compactionMoves.value(), ss.cycleFlips.value(),
            ss.blockedHeaders.value(),  ss.blockedAborts.value(),
            ss.timeoutAborts.value(),   ss.dacks.value(),
            ss.busesSevered.value(),    ss.messagesRecovered.value(),
            ss.messagesLost.value(),    ss.maxCycleSkew.value()};
        t.moves += now.moves - was.moves;
        t.flips += now.flips - was.flips;
        t.blocked += now.blocked - was.blocked;
        t.aborts += now.aborts - was.aborts;
        t.timeouts += now.timeouts - was.timeouts;
        t.dacks += now.dacks - was.dacks;
        t.severed += now.severed - was.severed;
        t.recovered += now.recovered - was.recovered;
        t.lost += now.lost - was.lost;
        t.skew = std::max(t.skew, now.skew);
        was = now;
    };
    for (const std::uint32_t s : ready_)
        fold(s);
    // Driven shards not yet drained (a disarming coordinator does not
    // drain) stay listed for the next barrier.
    for (const std::uint32_t s : touched_)
        fold(s);
    ready_.clear();
    rmbStats_.compactionMoves = t.moves;
    rmbStats_.cycleFlips = t.flips;
    rmbStats_.blockedHeaders = t.blocked;
    rmbStats_.blockedAborts = t.aborts;
    rmbStats_.timeoutAborts = t.timeouts;
    rmbStats_.dacks = t.dacks;
    rmbStats_.busesSevered = t.severed;
    rmbStats_.messagesRecovered = t.recovered;
    rmbStats_.messagesLost = t.lost;
    rmbStats_.maxCycleSkew = t.skew;
    // faultsInjected / faultsRepaired are parent-owned (the mirror
    // increments them at injection time); per-leg samplers stay in
    // the shard registries (docs/HIERARCHY.md).
}

// --- fault domain ---

core::GapId
HierNetwork::faultDomainGaps() const
{
    return config_.numNodes + (localRings_ > 1 ? localRings_ : 0);
}

core::Level
HierNetwork::faultDomainLevels(core::GapId gap) const
{
    return static_cast<core::Level>(gap < config_.numNodes
                                        ? config_.numBuses
                                        : globalLevels_);
}

std::uint32_t
HierNetwork::faultIndex(core::GapId gap, core::Level level) const
{
    rmb_assert(gap < faultDomainGaps(), "fault gap out of domain");
    rmb_assert(level >= 0 && level < faultDomainLevels(gap),
               "fault level out of domain");
    if (gap < config_.numNodes)
        return gap * config_.numBuses +
               static_cast<std::uint32_t>(level);
    return config_.numNodes * config_.numBuses +
           (gap - config_.numNodes) * globalLevels_ +
           static_cast<std::uint32_t>(level);
}

void
HierNetwork::failSegment(core::GapId gap, core::Level level)
{
    const std::uint32_t idx = faultIndex(gap, level);
    rmb_assert(!faultMirror_[idx],
               "failSegment on an already-faulty segment");
    faultMirror_[idx] = 1;
    ++faultyCount_;
    ++rmbStats_.faultsInjected;

    const sim::Tick now = simulator().now();
    std::uint32_t shard;
    core::GapId sub_gap;
    if (gap < config_.numNodes) {
        shard = gap / ringSize_;
        sub_gap = gap % ringSize_;
    } else {
        shard = globalShard();
        sub_gap = gap - config_.numNodes;
    }
    core::Engine *eng = shards_[shard]->engine.get();
    scheduleOnShard(shard, now, [eng, sub_gap, level] {
        eng->failSegment(sub_gap, level);
    });
    ensureArmed();
}

void
HierNetwork::repairSegment(core::GapId gap, core::Level level)
{
    const std::uint32_t idx = faultIndex(gap, level);
    rmb_assert(faultMirror_[idx],
               "repairSegment on a healthy segment");
    faultMirror_[idx] = 0;
    --faultyCount_;
    ++rmbStats_.faultsRepaired;

    const sim::Tick now = simulator().now();
    std::uint32_t shard;
    core::GapId sub_gap;
    if (gap < config_.numNodes) {
        shard = gap / ringSize_;
        sub_gap = gap % ringSize_;
    } else {
        shard = globalShard();
        sub_gap = gap - config_.numNodes;
    }
    core::Engine *eng = shards_[shard]->engine.get();
    scheduleOnShard(shard, now, [eng, sub_gap, level] {
        eng->repairSegment(sub_gap, level);
    });
    ensureArmed();
}

// --- bridge fault domain ---

std::uint32_t
HierNetwork::faultDomainBridges() const
{
    return localRings_ > 1 ? localRings_ : 0;
}

void
HierNetwork::failBridge(std::uint32_t bridge, bool permanent)
{
    rmb_assert(bridge < bridges_.size(),
               "failBridge index out of range");
    Bridge &br = bridges_[bridge];
    rmb_assert(!br.dead, "failBridge on an already-dead bridge");
    br.dead = true;
    br.permanent = permanent;
    if (permanent)
        ++permanentDeadBridges_;
    ++rmbStats_.bridgeFaults;
    if (tracing()) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::BridgeFail;
        e.at = simulator().now();
        e.node = bridge;
        e.a = permanent ? 1 : 0;
        emitTrace(e);
    }
}

void
HierNetwork::repairBridge(std::uint32_t bridge)
{
    rmb_assert(bridge < bridges_.size(),
               "repairBridge index out of range");
    Bridge &br = bridges_[bridge];
    if (!br.dead)
        return;
    if (br.permanent)
        --permanentDeadBridges_;
    br.dead = false;
    br.permanent = false;
    if (tracing()) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::BridgeRepair;
        e.at = simulator().now();
        e.node = bridge;
        emitTrace(e);
    }
}

bool
HierNetwork::bridgeFaulty(std::uint32_t bridge) const
{
    rmb_assert(bridge < bridges_.size(),
               "bridgeFaulty index out of range");
    return bridges_[bridge].dead;
}

// --- graceful degradation (docs/FAULTS.md) ---

bool
HierNetwork::localLegDead(std::uint32_t ring, net::NodeId from,
                          net::NodeId to) const
{
    const core::GapId base = ring * ringSize_;
    const core::Level top =
        static_cast<core::Level>(config_.numBuses) - 1;
    if (segmentPermanent(base + from, top))
        return true;
    for (net::NodeId g = from; g != to; g = (g + 1) % ringSize_) {
        if (gapFullyDead(base + g))
            return true;
    }
    return false;
}

bool
HierNetwork::globalLegDead(std::uint32_t from, std::uint32_t to)
    const
{
    const core::GapId base = config_.numNodes;
    const core::Level top =
        static_cast<core::Level>(globalLevels_) - 1;
    if (segmentPermanent(base + from, top))
        return true;
    for (std::uint32_t g = from; g != to;
         g = (g + 1) % localRings_) {
        if (gapFullyDead(base + g))
            return true;
    }
    return false;
}

bool
HierNetwork::routeDead(net::NodeId src, net::NodeId dst) const
{
    if (permanentSegments() == 0 && permanentDeadBridges_ == 0)
        return false;
    const std::uint32_t rs = src / ringSize_;
    const std::uint32_t rd = dst / ringSize_;
    const net::NodeId ls = src % ringSize_;
    const net::NodeId ld = dst % ringSize_;
    if (rs == rd)
        return localLegDead(rs, ls, ld);

    // The out-leg to the source ring's bridge node (skipped when the
    // source *is* that node), then the source bridge itself.
    if (ls != 0 && localLegDead(rs, ls, 0))
        return true;
    if (bridges_[rs].dead && bridges_[rs].permanent)
        return true;

    if (globalLegDead(rs, rd))
        return true;

    // The destination bridge and the in-leg are skipped when the
    // destination is its ring's bridge node: the global leg already
    // ends there.
    if (ld == 0)
        return false;
    if (bridges_[rd].dead && bridges_[rd].permanent)
        return true;
    return localLegDead(rd, 0, ld);
}

bool
HierNetwork::remainingRouteDead(std::uint32_t shard,
                                const Pending &p,
                                net::NodeId leg_src,
                                net::NodeId leg_dst) const
{
    if (permanentSegments() == 0 && permanentDeadBridges_ == 0)
        return false;
    // The current leg itself.
    if (shard == globalShard() && localRings_ > 1) {
        if (globalLegDead(leg_src, leg_dst))
            return true;
    } else if (localLegDead(shard, leg_src, leg_dst)) {
        return true;
    }
    // Everything the message still has ahead of it.
    const std::uint32_t rs = p.src / ringSize_;
    const std::uint32_t rd = p.dst / ringSize_;
    const net::NodeId ld = p.dst % ringSize_;
    switch (p.stage) {
      case Stage::Final:
      case Stage::LocalIn:
        return false;
      case Stage::LocalOut:
        if (bridges_[rs].dead && bridges_[rs].permanent)
            return true;
        if (globalLegDead(rs, rd))
            return true;
        break;
      case Stage::Global:
        break;
    }
    if (ld == 0)
        return false;
    if (bridges_[rd].dead && bridges_[rd].permanent)
        return true;
    return localLegDead(rd, 0, ld);
}

// --- delivery supervisor hooks ---

bool
HierNetwork::findLeg(net::MessageId id, std::uint32_t *shard,
                     net::MessageId *leg) const
{
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
        // rmblint:allow(determinism-hazard): unique-match search - a
        // message id owns at most one leg per shard.
        for (const auto &[leg_id, p] : shards_[s]->legs) {
            if (p.ours == id) {
                *shard = s;
                *leg = leg_id;
                return true;
            }
        }
    }
    return false;
}

std::uint64_t
HierNetwork::progressStamp(net::MessageId id) const
{
    // Bridge deflections bump the parent message's nack/retry
    // counters, so the base stamp already tracks offer-queue
    // progress; an in-flight leg folds in its stage plus the
    // constituent engine's own fingerprint of the leg message.
    std::uint64_t h = Engine::progressStamp(id);
    const auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 1099511628211ull;
    };
    std::uint32_t shard = 0;
    net::MessageId leg = net::kNoMessage;
    if (findLeg(id, &shard, &leg)) {
        const Pending &p = shards_[shard]->legs.at(leg);
        mix(shard + 1);
        mix(leg);
        mix(static_cast<std::uint64_t>(p.stage));
        mix(p.hops);
        mix(shards_[shard]->engine->progressStamp(leg));
    }
    return h;
}

bool
HierNetwork::rescueStalled(net::MessageId id)
{
    const net::Message &m = message(id);
    if (m.state == net::MessageState::Delivered ||
        m.state == net::MessageState::Failed)
        return false;
    std::uint32_t shard = 0;
    net::MessageId leg = net::kNoMessage;
    if (!findLeg(id, &shard, &leg)) {
        // Between legs: a deflection retry parked in the offer
        // queue.  Every re-offer bumps the parent nack/retry
        // counters (= the stamp), so a genuinely stalled offer
        // cannot exist; look again next period.
        return false;
    }
    Shard &sh = touchShard(shard);

    // First choice: the constituent engine rescues its own leg (the
    // sever-and-retry machinery inside the shard).
    const bool rescued = sh.engine->rescueStalled(leg);
    next_[shard] = sh.sim.eventQueue().nextTick();
    if (rescued) {
        ++rmbStats_.watchdogFires;
        ensureArmed();
        return true;
    }

    // The leg is exempt inside its shard (typically queued behind a
    // segment nothing will repair).  If permanent damage has cut
    // what remains of the route, return any held bridge slot, orphan
    // the leg and write the message off; otherwise leave it be.
    const Pending p = sh.legs.at(leg);
    const net::Message &lm = sh.engine->message(leg);
    if (!remainingRouteDead(shard, p, lm.src, lm.dst))
        return false;

    const sim::Tick now = simulator().now();
    if (p.stage == Stage::Global)
        releaseBridge(p.src / ringSize_, p, now);
    else if (p.stage == Stage::LocalIn)
        releaseBridge(p.dst / ringSize_, p, now);
    sh.legs.erase(leg);
    sh.orphans.insert(leg);
    ++rmbStats_.watchdogFires;
    if (tracing()) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::WatchdogFire;
        e.at = now;
        e.message = id;
        e.node = p.src;
        emitTrace(e);
    }
    deadLetterMessage(messageRef(id), rmbStats_,
                      obs::kDeadStalled);
    return true;
}

// --- census ---

bool
HierNetwork::segmentOccupied(core::GapId gap,
                             core::Level level) const
{
    if (gap < config_.numNodes)
        return shards_[gap / ringSize_]->engine->segmentOccupied(
            gap % ringSize_, level);
    return shards_[globalShard()]->engine->segmentOccupied(
        gap - config_.numNodes, level);
}

bool
HierNetwork::segmentFaulty(core::GapId gap, core::Level level) const
{
    return faultMirror_[faultIndex(gap, level)] != 0;
}

std::uint32_t
HierNetwork::faultySegments() const
{
    return faultyCount_;
}

std::uint64_t
HierNetwork::occupiedSegments() const
{
    std::uint64_t total = 0;
    for (const auto &sh : shards_)
        total += sh->engine->occupiedSegments();
    return total;
}

double
HierNetwork::segmentUtilization(core::GapId gap, core::Level level,
                                sim::Tick now) const
{
    if (gap < config_.numNodes)
        return shards_[gap / ringSize_]->engine->segmentUtilization(
            gap % ringSize_, level, now);
    return shards_[globalShard()]->engine->segmentUtilization(
        gap - config_.numNodes, level, now);
}

double
HierNetwork::averageSegmentUtilization(sim::Tick now) const
{
    double weighted = 0.0;
    std::uint64_t segments = 0;
    for (const auto &sh : shards_) {
        const core::RmbConfig &sc = sh->engine->config();
        const std::uint64_t n =
            static_cast<std::uint64_t>(sc.numNodes) * sc.numBuses;
        weighted += sh->engine->averageSegmentUtilization(now) *
                    static_cast<double>(n);
        segments += n;
    }
    return segments == 0 ? 0.0
                         : weighted / static_cast<double>(segments);
}

void
HierNetwork::auditInvariants() const
{
    std::int64_t held = 0;
    for (std::uint32_t b = 0; b < bridges_.size(); ++b) {
        rmb_assert(bridges_[b].occupancy <= config_.bridgeBuffer,
                   "bridge ", b, " over capacity");
        held += bridges_[b].occupancy;
    }
    rmb_assert(held == bridgeOccupancy_.current(),
               "bridge occupancy tracker out of sync");
    for (const auto &sh : shards_)
        sh->engine->auditInvariants();
}

} // namespace hier
} // namespace rmb
