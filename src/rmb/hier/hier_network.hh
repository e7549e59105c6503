/**
 * @file
 * Hierarchical multi-ring RMB: M local rings under one global ring,
 * joined by store-and-forward bridge INCs.
 *
 * A HierNetwork is a `core::Engine` whose fabric is a composition of
 * complete RMB instances (docs/HIERARCHY.md):
 *
 *  - M = RmbConfig::localRings local rings of numNodes/M nodes each,
 *    every one a full engine of RmbConfig::engine (the cycle kernel
 *    by default for large runs);
 *  - one global ring of M nodes (skipped when M == 1) with
 *    RmbConfig::globalBuses levels;
 *  - bridge INC i attaches local node 0 of ring i to global node i.
 *    A bridge has RmbConfig::bridgeBuffer store-and-forward slots;
 *    crossing a bridge costs RmbConfig::bridgeLatency ticks.  A
 *    message arriving at a full bridge is *deflected*: it re-enters
 *    the Nack/backoff machinery and re-offers itself later.
 *
 * Execution is sharded: every constituent ring runs on its own
 * private `sim::Simulator`, advanced by a coordinator event on the
 * parent simulator in conservative lookahead windows.  A window ends
 * at most bridgeLatency ticks past the earliest pending shard event,
 * at the next due bridge offer, and never past the next parent
 * event.  Only the shards with an event due in a window run, in
 * parallel on a `common::Runner` pool (RmbConfig::shardJobs), each
 * on the same worker from window to window; all cross-shard traffic
 * is exchanged at the single-threaded window barrier in global time
 * order, so results are byte-identical for every job count.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/parallel.hh"
#include "rmb/engine.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

namespace rmb {
namespace core {
class FaultSchedule;
} // namespace core
namespace hier {

/**
 * The hierarchical engine.  See the file comment for the topology
 * and docs/HIERARCHY.md for the bridge protocol and the
 * lookahead-determinism argument.
 */
class HierNetwork : public core::Engine
{
  public:
    HierNetwork(sim::Simulator &simulator,
                const core::RmbConfig &config);
    ~HierNetwork() override;

    net::MessageId send(net::NodeId src, net::NodeId dst,
                        std::uint32_t payload_flits) override;

    // --- core::Engine ---
    const core::RmbConfig &config() const override { return config_; }
    const core::RmbStats &rmbStats() const override
    {
        return rmbStats_;
    }
    void failSegment(core::GapId gap, core::Level level) override;
    void repairSegment(core::GapId gap, core::Level level) override;
    void auditInvariants() const override;
    bool segmentOccupied(core::GapId gap,
                         core::Level level) const override;
    bool segmentFaulty(core::GapId gap,
                       core::Level level) const override;
    std::uint32_t faultySegments() const override;
    std::uint64_t occupiedSegments() const override;
    double segmentUtilization(core::GapId gap, core::Level level,
                              sim::Tick now) const override;
    double averageSegmentUtilization(sim::Tick now) const override;

    /**
     * Fault domain: the N local gaps first (gap g = local gap g mod L
     * of ring g / L), then - when M > 1 - the M global-ring gaps
     * (gap N + r = the global segment bundle leaving bridge r).
     */
    core::GapId faultDomainGaps() const override;
    core::Level faultDomainLevels(core::GapId gap) const override;

    // --- bridge fault domain (docs/FAULTS.md) ---

    /** The M bridge INCs (0 when M == 1: no bridges exist). */
    std::uint32_t faultDomainBridges() const override;

    /**
     * Take bridge @p bridge out of service.  Buffered occupants
     * drain through their already-launched legs; new offers deflect
     * (transient) or dead-letter with kDeadBridgeDead (@p permanent).
     */
    void failBridge(std::uint32_t bridge, bool permanent) override;

    /** Return bridge @p bridge to service. */
    void repairBridge(std::uint32_t bridge) override;

    /** Is bridge @p bridge currently out of service? */
    bool bridgeFaulty(std::uint32_t bridge) const override;

    /**
     * Leg-by-leg route liveness: decomposes the path into the local
     * out-leg, the bridge crossings and the global leg, and reports
     * dead when any leg's injection top is permanently gone, any leg
     * crosses a fully dead gap, or a required bridge is permanently
     * out of service.
     */
    bool routeDead(net::NodeId src, net::NodeId dst) const override;

    // --- delivery supervisor hooks (docs/ENGINE.md) ---

    /** Base stamp + the in-flight leg's stage and the constituent
     *  engine's own progress stamp for that leg. */
    std::uint64_t progressStamp(net::MessageId id) const override;

    /**
     * Rescue a parent message whose current leg sits silent: if no
     * route remains, release any held bridge slot, orphan the stuck
     * leg inside its shard and dead-letter the message; otherwise
     * delegate to the constituent engine's own rescue machinery.
     */
    bool rescueStalled(net::MessageId id) override;

    /** Number of local rings M. */
    std::uint32_t numRings() const { return localRings_; }

    /** Nodes per local ring (numNodes / localRings). */
    std::uint32_t ringSize() const { return ringSize_; }

    /**
     * Seed of constituent ring @p ring (rings 0..M-1 are the local
     * rings, ring M the global ring).  Pure function of the parent
     * seed, exposed so differential tests can build the *identical*
     * standalone flat ring (tests/hier_test.cc).
     */
    static std::uint64_t localRingSeed(const core::RmbConfig &config,
                                       std::uint32_t ring);

    /** The engine of constituent ring @p ring (tests / census). */
    const core::Engine &ringEngine(std::uint32_t ring) const;

  private:
    /** Where a parent message currently is in its leg sequence. */
    enum class Stage : std::uint8_t
    {
        Final,    //!< intra-ring leg; delivery completes the message
        LocalOut, //!< source ring leg towards the bridge (node 0)
        Global,   //!< global-ring leg between bridges
        LocalIn,  //!< destination ring leg from the bridge
    };

    /** Parent-side in-flight state, carried between legs by value
     *  (the grid composition pattern). */
    struct Pending
    {
        net::MessageId ours = net::kNoMessage;
        net::NodeId src = 0;
        net::NodeId dst = 0;
        std::uint32_t hops = 0;     //!< accumulated path hops
        std::uint32_t deflects = 0; //!< consecutive bridge deflects
        Stage stage = Stage::Final;
    };

    /** One delivery/failure observed inside a shard window; appended
     *  by the shard's worker thread, drained at the barrier. */
    struct OutRecord
    {
        sim::Tick at = 0;
        net::MessageId leg = net::kNoMessage;
        bool failed = false;
    };

    /** The shard protocol counters the parent folds into its own
     *  RmbStats (sums, except maxCycleSkew: a max). */
    struct FoldedCounters
    {
        std::uint64_t moves = 0, flips = 0, blocked = 0, aborts = 0,
                      timeouts = 0, dacks = 0, severed = 0,
                      recovered = 0, lost = 0, skew = 0;
    };

    /** One constituent ring: private simulator, engine, outbox. */
    struct Shard
    {
        sim::Simulator sim;
        std::unique_ptr<core::Engine> engine;
        /** leg message id -> parent pending state.  Written only by
         *  this shard's worker (inside wrapper events) or by the
         *  single-threaded barrier; never both at once. */
        std::unordered_map<net::MessageId, Pending> legs;
        /** Legs whose parent message the supervisor dead-lettered:
         *  their eventual completion records are dropped instead of
         *  panicking as unmapped (docs/FAULTS.md). */
        std::unordered_set<net::MessageId> orphans;
        std::vector<OutRecord> outbox;
        /** Counter values as of this shard's last fold. */
        FoldedCounters folded;
    };

    /** A deferred bridge admission offer (deflection retry or a
     *  send that starts on its bridge node). */
    struct Offer
    {
        sim::Tick at = 0;
        std::uint64_t seq = 0; //!< creation order, the tiebreaker
        std::uint32_t bridge = 0;
        Pending pending;
    };
    struct OfferLater
    {
        bool
        operator()(const Offer &a, const Offer &b) const
        {
            return a.at != b.at ? a.at > b.at : a.seq > b.seq;
        }
    };

    /** Bounded store-and-forward buffer state of one bridge INC. */
    struct Bridge
    {
        std::uint32_t occupancy = 0;
        sim::Random rng; //!< deflection backoff jitter
        bool dead = false;      //!< out of service (failBridge)
        bool permanent = false; //!< never coming back
    };

    // Coordinator (the conservative parallel executor).
    void ensureArmed();
    void coordinate();
    sim::Tick windowCandidate();
    void runWindow(sim::Tick until);
    void drainBarrier(sim::Tick until);
    void foldShardStats();

    /** Bring shard @p s's clock to the last window end before the
     *  coordinator touches it (see runWindow). */
    void syncClock(std::uint32_t s) const;
    /** Shard @p s is about to be driven from the coordinator thread:
     *  sync its clock and drain and fold it at the next barrier. */
    Shard &touchShard(std::uint32_t s);
    /** Schedule @p fn on shard @p s at @p at, or at the shard's clock
     *  if that is later. */
    template <typename Fn>
    void scheduleOnShard(std::uint32_t s, sim::Tick at, Fn &&fn);

    // Barrier-side message plumbing (single-threaded, processed in
    // global time order).
    void processRecord(std::uint32_t shard, const OutRecord &rec);
    void offerToBridge(std::uint32_t bridge, Pending pending,
                       sim::Tick at);
    void releaseBridge(std::uint32_t bridge, const Pending &pending,
                       sim::Tick at);
    void launchLeg(std::uint32_t shard, net::NodeId src,
                   net::NodeId dst, std::uint32_t payload_flits,
                   sim::Tick at, Pending pending);
    void finish(Pending &pending, sim::Tick at,
                sim::Tick established);
    void emitBridgeEvent(obs::EventKind kind, std::uint32_t bridge,
                         const Pending &pending, sim::Tick at,
                         std::uint64_t a);

    std::uint32_t globalShard() const { return localRings_; }
    std::uint32_t faultIndex(core::GapId gap,
                             core::Level level) const;

    /** Locate the in-shard leg currently carrying parent message
     *  @p id; false when the message is between legs (deflecting in
     *  the offer queue or being handed across the barrier). */
    bool findLeg(net::MessageId id, std::uint32_t *shard,
                 net::MessageId *leg) const;

    /** Permanent-damage liveness of one intra-ring leg: injection
     *  top at (ring, from) or any local gap on from -> to dead. */
    bool localLegDead(std::uint32_t ring, net::NodeId from,
                      net::NodeId to) const;

    /** Same, for a global-ring leg between bridges @p from/@p to. */
    bool globalLegDead(std::uint32_t from, std::uint32_t to) const;

    /** routeDead restricted to what is still ahead of a message
     *  whose current leg runs @p leg_src -> @p leg_dst in @p shard. */
    bool remainingRouteDead(std::uint32_t shard, const Pending &p,
                            net::NodeId leg_src,
                            net::NodeId leg_dst) const;

    core::RmbConfig config_;
    std::uint32_t localRings_;  //!< M
    std::uint32_t ringSize_;    //!< L = numNodes / M
    std::uint32_t globalLevels_; //!< k of the global ring
    sim::Tick bridgeLatency_;

    core::RmbStats rmbStats_;
    obs::Counter &bridgeArrivals_;
    obs::Counter &bridgeDepartures_;
    obs::Counter &bridgeDeflections_;
    sim::LevelTracker &bridgeOccupancy_;

    /** M local shards, plus the global shard at index M iff M > 1. */
    std::vector<std::unique_ptr<Shard>> shards_;
    /** Tick of each shard's earliest pending event (kMaxTick when
     *  idle), kept beside the shards so a window scans one array. */
    std::vector<sim::Tick> next_;
    /** Shards to drain and fold at the next barrier: those with an
     *  event due in the current window, plus any the coordinator
     *  drove directly (touchShard). */
    std::vector<std::uint32_t> ready_;
    std::vector<std::uint32_t> touched_;
    /** The last window end: every shard's clock, once synced. */
    sim::Tick windowEnd_ = 0;
    /** Sum (max for skew) of every shard's folded counters. */
    FoldedCounters foldTotals_;
    std::vector<Bridge> bridges_;

    std::priority_queue<Offer, std::vector<Offer>, OfferLater>
        offers_;
    std::uint64_t offerSeq_ = 0;

    /** Parent-authoritative fault mirror over the whole domain. */
    std::vector<std::uint8_t> faultMirror_;
    std::uint32_t faultyCount_ = 0;
    /** Stochastic MTBF/MTTR process over the composed fault domain
     *  (segments of every ring, plus bridges); runs on the parent
     *  simulator, so it is byte-identical for any shardJobs. */
    std::unique_ptr<core::FaultSchedule> faults_;
    /** Bridges currently marked permanently dead (routeDead gate). */
    std::uint32_t permanentDeadBridges_ = 0;

    common::Runner runner_;
    bool armed_ = false;

    /** RMB_HIER_MUTATE seeded bug (tests): drop the bridge hop from
     *  the accumulated path length, so the outcome digest of any
     *  cross-ring message shrinks by its bridge count.  Proves the
     *  hier differential harness can actually fail (WILL_FAIL). */
    bool mutateHops_ = false;
};

} // namespace hier
} // namespace rmb
