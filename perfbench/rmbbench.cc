/**
 * @file
 * Repository benchmark harness (BENCHMARK.md in this directory).
 *
 *   rmbbench --workload W --seed S --seconds T --trace 0|1
 *            [--spans FILE]
 *   rmbbench --selfcheck --seed S
 *
 * Each workload builds a few independent input sets from the seed,
 * runs one unit of work (a "rep": construct, run to quiescence,
 * verify) on each, then replays sets until the time budget is spent.
 * A replay must reproduce its set's simulated statistics exactly.
 * Host-time rates take each slice of the run phase at its fastest
 * replay; set-up is reported as a median.  The harness drives the
 * simulator only through its public API and times those calls from
 * the outside.
 *
 * The last stdout line is one JSON object: {"correct", "attempted",
 * "failed", "metrics"}.  With --trace 0 the metrics are the
 * end-to-end set; with --trace 1 they are the per-layer set, taken
 * from a separate traced pass (spans around every call into the
 * simulator, plus the obs::prof self-profiler).  Lines before it
 * carry the host fingerprint and the run's determinism facts.
 */

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/eval.hh"
#include "exp/spec.hh"
#include "obs/json.hh"
#include "obs/prof.hh"
#include "obs/run_report.hh"
#include "rmb/engine.hh"
#include "rmb/hier/hier_network.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "workload/traffic.hh"

namespace {

using namespace rmb;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point since)
{
    return std::chrono::duration<double>(Clock::now() - since).count();
}

/** Shortest round-trip decimal form of @p v (all its digits). */
std::string
num(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile of @p sorted (ascending), q in (0, 1]. */
double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double
ratio(double a, double b)
{
    return b > 0.0 ? a / b : 0.0;
}

/** FNV-1a fingerprint, as bench_hierarchy prints it. */
std::string
fnv(const std::string &text)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

// ------------------------------------------------------------------
// Spans: one per call into the simulator, kept in memory, written
// out at exit.  Off (a single branch) outside the traced pass.

struct Span
{
    const char *name;
    std::uint32_t rep;   //!< spans of one rep share this id
    std::int32_t parent; //!< index of the enclosing span, -1 = none
    std::int64_t startNs;
    std::int64_t endNs;
};

class Tracer
{
  public:
    /** RAII span; a no-op while the tracer is off. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name) : tracer_(tracer)
        {
            if (!tracer_.on_)
                return;
            index_ = static_cast<std::int32_t>(tracer_.spans_.size());
            tracer_.spans_.push_back(Span{name, tracer_.rep_,
                                          tracer_.open_, tracer_.ns(),
                                          0});
            tracer_.open_ = index_;
        }
        ~Scope()
        {
            if (index_ < 0)
                return;
            Span &s = tracer_.spans_[static_cast<std::size_t>(index_)];
            s.endNs = tracer_.ns();
            tracer_.open_ = s.parent;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        std::int32_t index_ = -1;
    };

    bool on() const { return on_; }
    void setOn(bool on) { on_ = on; }
    void setRep(std::uint32_t rep) { rep_ = rep; }

    /** Mean duration (ns) of the spans named @p name; 0 if none. */
    double
    meanNs(const std::string &name) const
    {
        double total = 0.0;
        double n = 0.0;
        for (const Span &s : spans_) {
            if (name == s.name) {
                total += static_cast<double>(s.endNs - s.startNs);
                n += 1.0;
            }
        }
        return ratio(total, n);
    }

    /** One JSON object per line: name, rep, parent, start, end. */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << "{\"id\":" << i << ",\"name\":\"" << s.name
                << "\",\"rep\":" << s.rep << ",\"parent\":" << s.parent
                << ",\"start_ns\":" << s.startNs
                << ",\"end_ns\":" << s.endNs << "}\n";
        }
        return static_cast<bool>(out);
    }

  private:
    std::int64_t
    ns() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
            .count();
    }

    bool on_ = false;
    std::uint32_t rep_ = 0;
    std::int32_t open_ = -1;
    std::vector<Span> spans_;
    Clock::time_point epoch_ = Clock::now();
};

Tracer tracer;

using Scope = Tracer::Scope;

/** Correctness violations; any entry makes the run fail. */
std::vector<std::string> violations;

void
violate(const std::string &what)
{
    std::cerr << "rmbbench: VIOLATION: " << what << "\n";
    violations.push_back(what);
}

// ------------------------------------------------------------------
// Workload shapes and seed-derived inputs.

struct Send
{
    sim::Tick at;
    net::NodeId src;
    net::NodeId dst;

    bool operator==(const Send &) const = default;
};

/** event_open_local: the flat 256 x 8 ring under local:8 traffic. */
constexpr net::NodeId kOpenNodes = 256;
constexpr std::uint32_t kOpenBuses = 8;
constexpr double kOpenRate = 0.005;
constexpr net::NodeId kOpenDistance = 8;
constexpr std::uint32_t kOpenPayload = 32;
constexpr sim::Tick kOpenHorizon = 20'000;
constexpr sim::Tick kOpenWarmup = kOpenHorizon / 5;

/** hier_local: 64 local rings of 128 behind bridges.  At this rate
 *  (1.6e-5 messages/node/tick) the bridges keep up and the run
 *  drains within ~2k ticks of the horizon; four times the rate
 *  builds a backlog that dominates the run. */
constexpr net::NodeId kHierNodes = 8192;
constexpr std::uint32_t kHierRings = 64;
constexpr std::uint32_t kHierBuses = 4;
constexpr std::uint32_t kHierPayload = 16;
constexpr sim::Tick kHierHorizon = 32'000;
constexpr std::uint64_t kHierMessages = kHierNodes / 2;

/** sweep_points: randperm points, payloads 1..kSweepPayloads for
 *  each (engine, N, k): 126 short points per input set. */
constexpr int kSweepPayloads = 7;

/** Scheduling order: by tick, generation order among equal ticks. */
void
sortByTick(std::vector<Send> &sends)
{
    std::stable_sort(sends.begin(), sends.end(),
                     [](const Send &a, const Send &b) {
                         return a.at < b.at;
                     });
}

/**
 * Bernoulli arrivals at @p rate per node per tick (geometric gaps,
 * each node on its own substream, as workload::runOpenLoop draws
 * them), destinations from workload::LocalRingTraffic.
 */
std::vector<Send>
openLoopSends(std::uint64_t seed, net::NodeId nodes, double rate,
              net::NodeId distance, sim::Tick horizon)
{
    const sim::Random root = sim::Random(seed).split(0x0be7);
    workload::LocalRingTraffic pattern(nodes, distance);
    std::vector<Send> sends;
    for (net::NodeId node = 0; node < nodes; ++node) {
        sim::Random rng = root.split(node);
        for (sim::Tick t = rng.geometric(rate) + 1; t < horizon;
             t += rng.geometric(rate) + 1)
            sends.push_back(Send{t, node, pattern.pick(node, rng)});
    }
    sortByTick(sends);
    return sends;
}

/**
 * The bench_hierarchy mostly-local mix: 7/8 of messages stay in the
 * source's ring, 1/8 go forward into the next one or two rings.
 */
std::vector<Send>
hierSends(std::uint64_t seed, net::NodeId nodes, net::NodeId ring,
          std::uint64_t messages, sim::Tick horizon)
{
    sim::Random rng = sim::Random(seed).split(0xbe9c);
    std::vector<Send> sends;
    sends.reserve(messages);
    for (std::uint64_t i = 0; i < messages; ++i) {
        const auto src = static_cast<net::NodeId>(rng.uniformInt(nodes));
        net::NodeId dst;
        if (rng.uniformInt(8) != 0) {
            const net::NodeId base = (src / ring) * ring;
            dst = base + static_cast<net::NodeId>(
                             rng.uniformInt(ring - 1));
            if (dst >= src)
                ++dst;
        } else {
            dst = static_cast<net::NodeId>(
                (src + ring + rng.uniformInt(2u * ring)) % nodes);
        }
        sends.push_back(Send{rng.uniformRange(0, horizon), src, dst});
    }
    sortByTick(sends);
    return sends;
}

/**
 * The sweep_points spec: event/kernel x N x k x payload, randperm.
 * Every point runs on its own seed substream split from the master
 * seed.  Latency percentiles on this workload are over the points'
 * mean latencies, so the pooled input sets need >= 1000 points for
 * p99 to have ten samples beyond it.
 */
std::string
sweepSpecJson(std::uint64_t seed)
{
    std::string payloads;
    for (int p = 1; p <= kSweepPayloads; ++p) {
        if (p > 1)
            payloads += ',';
        payloads += std::to_string(p);
    }
    return "{\"name\":\"perfbench\",\"mode\":\"cartesian\",\"seed\":" +
           std::to_string(seed) +
           ",\"base\":{\"network\":\"rmb\",\"workload\":\"randperm\","
           "\"timeout\":2000000},\"axes\":["
           "{\"field\":\"engine\",\"values\":[\"event\",\"kernel\"]},"
           "{\"field\":\"nodes\",\"values\":[16,32,64]},"
           "{\"field\":\"buses\",\"values\":[2,4,8]},"
           "{\"field\":\"payload\",\"values\":[" +
           payloads + "]}]}";
}

core::RmbConfig
flatConfig(net::NodeId nodes, std::uint32_t buses,
           core::EngineKind engine, std::uint64_t seed)
{
    core::RmbConfig cfg;
    cfg.numNodes = nodes;
    cfg.numBuses = buses;
    cfg.engine = engine;
    cfg.seed = seed;
    return cfg;
}

/** The 256 x 8 open-loop ring on @p engine, verify off. */
core::RmbConfig
openConfig(core::EngineKind engine, std::uint64_t seed)
{
    core::RmbConfig cfg = flatConfig(kOpenNodes, kOpenBuses, engine, seed);
    cfg.verify = core::VerifyLevel::Off;
    return cfg;
}

core::RmbConfig
hierConfig(net::NodeId nodes, std::uint32_t rings, std::uint32_t jobs,
           std::uint64_t seed)
{
    core::RmbConfig cfg =
        flatConfig(nodes, kHierBuses, core::EngineKind::Kernel, seed);
    cfg.topology = core::TopologyKind::Hier;
    cfg.localRings = rings;
    cfg.shardJobs = jobs;
    return cfg;
}

/** One input set: the engine seed plus the workload's sends. */
struct Inputs
{
    std::uint64_t seed = 0;
    std::vector<Send> sends;
    std::string spec;

    bool operator==(const Inputs &) const = default;
};

// ------------------------------------------------------------------
// One rep: the deterministic facts and the host times.

/**
 * Simulated outcome of one rep, or of several pooled by add().  A
 * rep that replays an input set must reproduce its facts exactly.
 */
struct Facts
{
    std::uint64_t reps = 0;
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t failed = 0;      //!< failed (dead letters included)
    std::uint64_t deadLettered = 0;
    std::uint64_t undelivered = 0; //!< neither delivered nor failed
    std::uint64_t ticks = 0;
    std::uint64_t events = 0;
    std::uint64_t parentEvents = 0;
    std::uint64_t nacks = 0;
    std::uint64_t retries = 0;
    std::uint64_t compactionMoves = 0;
    std::uint64_t cycleFlips = 0;
    std::uint64_t bridgeArrivals = 0;
    std::uint64_t bridgeDeflections = 0;
    std::uint64_t points = 0;
    std::uint64_t failedPoints = 0;
    std::uint64_t reportBytes = 0;
    double segmentUtil = 0.0;    //!< summed over reps
    double shardImbalance = 0.0; //!< summed over reps
    /** Created -> delivered (after warm-up), in message-id order. */
    std::vector<double> latency;
    /** Injection -> established, in message-id order. */
    std::vector<double> setupLatency;
    std::string digest; //!< FNV-1a of the outcome digest(s)

    bool operator==(const Facts &) const = default;

    void
    add(const Facts &o)
    {
        reps += o.reps;
        injected += o.injected;
        delivered += o.delivered;
        failed += o.failed;
        deadLettered += o.deadLettered;
        undelivered += o.undelivered;
        ticks += o.ticks;
        events += o.events;
        parentEvents += o.parentEvents;
        nacks += o.nacks;
        retries += o.retries;
        compactionMoves += o.compactionMoves;
        cycleFlips += o.cycleFlips;
        bridgeArrivals += o.bridgeArrivals;
        bridgeDeflections += o.bridgeDeflections;
        points += o.points;
        failedPoints += o.failedPoints;
        reportBytes += o.reportBytes;
        segmentUtil += o.segmentUtil;
        shardImbalance += o.shardImbalance;
        latency.insert(latency.end(), o.latency.begin(), o.latency.end());
        setupLatency.insert(setupLatency.end(), o.setupLatency.begin(),
                            o.setupLatency.end());
        digest = fnv(digest + o.digest);
    }

    /** Messages (plus points) attempted, and how many of them did
     *  not complete: failed, dead-lettered or undelivered. */
    std::uint64_t attempted() const { return injected + points; }
    std::uint64_t
    incomplete() const
    {
        return failed + undelivered + failedPoints;
    }
};

/** Host-time measurements of one rep (seconds unless noted). */
struct Times
{
    double construct = 0.0;
    double setup = 0.0;
    double run = 0.0;
    double audit = 0.0;
    double digest = 0.0;
    double aggregate = 0.0;
    double toJson = 0.0;
    std::vector<double> pointMillis;
    /** The run phase cut into pieces that do the same work on every
     *  replay of the input set: one per kSliceTicks and per drain
     *  call on the open-loop workloads, one per point plus the rest
     *  on sweep_points.  They sum to run, less the loop around
     *  them. */
    std::vector<double> slices;
};

struct Rep
{
    /** The input set this rep ran. */
    std::size_t set = 0;
    Facts facts;
    Times times;
};

/** An engine plus the simulator it runs on (declared first, so it
 *  outlives the engine). */
struct Live
{
    sim::Simulator simulator;
    std::unique_ptr<core::Engine> engine;
};

/** Set-up is timed this many times per rep and reported as the
 *  median, because one set-up is short enough for host noise to
 *  dominate a single sample. */
constexpr int kSetupSamples = 3;

/**
 * Time @p build (construction through the last pre-run send) as a
 * set-up sample kSetupSamples times and keep the last result to run.
 * Earlier results are destroyed outside the timed region.
 */
template <typename Build>
std::unique_ptr<Live>
setUp(Build &&build, Times &times)
{
    std::vector<double> samples;
    std::unique_ptr<Live> live;
    const bool tracing = tracer.on();
    for (int i = 0; i < kSetupSamples; ++i) {
        live.reset();
        // Spans cover the set-up that is run, not the extra samples.
        tracer.setOn(tracing && i + 1 == kSetupSamples);
        const auto t0 = Clock::now();
        Scope span(tracer, "setup");
        live = build();
        samples.push_back(secondsSince(t0));
    }
    tracer.setOn(tracing);
    times.setup = median(std::move(samples));
    return live;
}

/** Construct the engine for @p cfg; times the makeEngine call. */
std::unique_ptr<Live>
construct(const core::RmbConfig &cfg, Times &times)
{
    const auto t0 = Clock::now();
    auto live = std::make_unique<Live>();
    {
        Scope span(tracer, "core.makeEngine");
        live->engine = core::makeEngine(live->simulator, cfg);
    }
    times.construct = secondsSince(t0);
    return live;
}

void
scheduleSends(Live &live, const std::vector<Send> &sends,
              std::uint32_t payload)
{
    core::Engine *engine = live.engine.get();
    for (const Send &s : sends) {
        Scope span(tracer, "sim.scheduleAt");
        live.simulator.scheduleAt(s.at, [engine, s, payload] {
            Scope send_span(tracer, "net.send");
            engine->send(s.src, s.dst, payload);
        });
    }
}

/** Run until every sent message is delivered or failed; with
 *  @p slices, time each run() call as one slice. */
void
drain(Live &live, std::vector<double> *slices = nullptr)
{
    while (!live.engine->quiescent()) {
        Scope span(tracer, "sim.run");
        const auto t0 = Clock::now();
        const std::uint64_t executed = live.simulator.run(65536);
        if (slices)
            slices->push_back(secondsSince(t0));
        if (executed == 0) {
            violate("event queue drained at tick " +
                    std::to_string(live.simulator.now()) +
                    " before quiescence");
            return;
        }
    }
}

/** hier_local facts read from outside: parent vs ring events and the
 *  bridge counters. */
void
collectHier(hier::HierNetwork &hier, Facts &f)
{
    double local_events = 0.0;
    double peak = 0.0;
    for (std::uint32_t r = 0; r < hier.numRings(); ++r) {
        Scope span(tracer, "hier.ringEngine");
        const auto e = static_cast<double>(
            hier.ringEngine(r).simulator().numExecuted());
        local_events += e;
        peak = std::max(peak, e);
    }
    // Imbalance is over the local rings; the global ring's events
    // count towards sim.events only.
    f.shardImbalance =
        ratio(peak, local_events / static_cast<double>(hier.numRings()));
    f.events += static_cast<std::uint64_t>(local_events);
    if (hier.numRings() > 1) {
        Scope span(tracer, "hier.ringEngine");
        f.events +=
            hier.ringEngine(hier.numRings()).simulator().numExecuted();
    }
    f.bridgeArrivals =
        hier.metrics().counter("hier.bridge.arrivals").value();
    f.bridgeDeflections =
        hier.metrics().counter("hier.bridge.deflections").value();
}

/**
 * The per-rep correctness gate and the simulated facts: audit the
 * invariants, check the message account, census latencies from
 * Network::message, fingerprint the outcome digest.
 */
Facts
collect(Live &live, sim::Tick measure_from, Times &times)
{
    Scope verify_span(tracer, "verify");
    core::Engine &engine = *live.engine;
    {
        Scope span(tracer, "core.auditInvariants");
        const auto t0 = Clock::now();
        engine.auditInvariants();
        times.audit = secondsSince(t0);
    }
    Facts f;
    f.reps = 1;
    const net::NetworkStats &st = engine.stats();
    f.injected = st.injected.value();
    f.delivered = st.delivered.value();
    f.failed = st.failed.value();
    f.nacks = st.nacks.value();
    f.retries = st.retries.value();
    {
        Scope span(tracer, "core.rmbStats");
        const core::RmbStats &rs = engine.rmbStats();
        f.deadLettered = rs.deadLettered.value();
        f.compactionMoves = rs.compactionMoves.value();
        f.cycleFlips = rs.cycleFlips.value();
    }
    f.ticks = live.simulator.now();
    f.events = live.simulator.numExecuted();
    f.parentEvents = f.events;
    f.segmentUtil = engine.averageSegmentUtilization(live.simulator.now());
    if (auto *hier = dynamic_cast<hier::HierNetwork *>(&engine))
        collectHier(*hier, f);

    std::uint64_t delivered = 0;
    std::uint64_t failed = 0;
    for (net::MessageId id = 1; id <= engine.numMessages(); ++id) {
        const net::Message &m = engine.message(id);
        if (m.state == net::MessageState::Failed) {
            ++failed;
            continue;
        }
        if (m.state != net::MessageState::Delivered)
            continue;
        ++delivered;
        f.setupLatency.push_back(static_cast<double>(m.setupLatency()));
        if (m.created >= measure_from)
            f.latency.push_back(static_cast<double>(m.totalLatency()));
    }
    f.undelivered = engine.numMessages() - delivered - failed;
    if (engine.numMessages() != f.injected)
        violate("message registry holds " +
                std::to_string(engine.numMessages()) + " of " +
                std::to_string(f.injected) + " injected");
    if (delivered != f.delivered || failed != f.failed)
        violate("message states disagree with the delivered/failed "
                "counters");
    if (f.delivered + f.failed != f.injected || f.undelivered != 0)
        violate("delivered " + std::to_string(f.delivered) +
                " + failed " + std::to_string(f.failed) +
                " != injected " + std::to_string(f.injected));
    if (f.deadLettered > f.failed)
        violate("more dead letters than failed messages");
    {
        Scope span(tracer, "core.outcomeDigest");
        const auto t0 = Clock::now();
        f.digest = fnv(core::outcomeDigest(engine));
        times.digest = secondsSince(t0);
    }
    return f;
}

/** Open-loop run phases are timed in slices of this many ticks: a
 *  few milliseconds of host time each on both open-loop shapes. */
constexpr sim::Tick kSliceTicks = 250;

/** Open loop: sends pre-scheduled at their ticks, run past the
 *  horizon in slices of @p slice_ticks, then drain. */
Rep
openLoopRep(const core::RmbConfig &cfg, const std::vector<Send> &sends,
            std::uint32_t payload, sim::Tick horizon,
            sim::Tick measure_from, sim::Tick slice_ticks = kSliceTicks)
{
    Rep rep;
    auto live = setUp(
        [&] {
            auto l = construct(cfg, rep.times);
            scheduleSends(*l, sends, payload);
            return l;
        },
        rep.times);

    {
        const auto t0 = Clock::now();
        Scope run_span(tracer, "run");
        // runUntil is exact, so stopping every slice_ticks changes no
        // outcome (the self-check compares against one slice).
        for (sim::Tick until = 0; until < horizon;) {
            until = std::min(horizon, until + slice_ticks);
            Scope span(tracer, "sim.runUntil");
            const auto s0 = Clock::now();
            live->simulator.runUntil(until);
            rep.times.slices.push_back(secondsSince(s0));
        }
        drain(*live, &rep.times.slices);
        rep.times.run = secondsSince(t0);
    }
    rep.facts = collect(*live, measure_from, rep.times);
    return rep;
}

/** Read one numeric point metric; 0 when absent. */
double
pointMetric(const exp::PointResult &r, const std::string &name)
{
    for (const auto &[key, value] : r.metrics) {
        if (key == name)
            return std::strtod(value.c_str(), nullptr);
    }
    return 0.0;
}

/** Materialise the spec (set-up), then runSweep, aggregate and
 *  toJson (the run phase).  The sweep's engines live inside
 *  exp::runPoint, so the gate here is per-point conservation. */
Rep
sweepRep(const std::string &spec_json)
{
    Rep rep;
    Facts &f = rep.facts;
    f.reps = 1;
    exp::SweepSpec spec;
    std::vector<double> samples;
    for (int i = 0; i < kSetupSamples; ++i) {
        const auto t0 = Clock::now();
        Scope setup_span(tracer, "setup");
        Scope span(tracer, "exp.materialise");
        std::vector<std::string> errors;
        if (!exp::SweepSpec::fromJson(spec_json, spec, errors)) {
            for (const auto &e : errors)
                violate("sweep spec: " + e);
            return rep;
        }
        f.points = spec.points().size();
        samples.push_back(secondsSince(t0));
    }
    rep.times.setup = median(std::move(samples));

    const auto t1 = Clock::now();
    Scope run_span(tracer, "run");
    exp::SweepOutcome outcome;
    {
        Scope span(tracer, "exp.runSweep");
        outcome = exp::runSweep(spec, 1, [&rep](const exp::Progress &p) {
            rep.times.pointMillis.push_back(p.wallMillis);
        });
    }
    std::string json;
    {
        const auto t2 = Clock::now();
        Scope span(tracer, "exp.aggregate");
        const obs::RunReport report = exp::aggregate(spec, outcome);
        rep.times.aggregate = secondsSince(t2);
        const auto t3 = Clock::now();
        Scope json_span(tracer, "obs.toJson");
        json = report.toJson();
        rep.times.toJson = secondsSince(t3);
    }
    rep.times.run = secondsSince(t1);
    for (const double ms : rep.times.pointMillis)
        rep.times.slices.push_back(ms / 1000.0);
    rep.times.slices.push_back(
        std::max(0.0, rep.times.run - std::accumulate(
                                          rep.times.slices.begin(),
                                          rep.times.slices.end(), 0.0)));

    f.failedPoints = outcome.failures;
    f.reportBytes = json.size();
    f.digest = fnv(json);
    if (outcome.results.size() != f.points)
        violate("sweep returned " +
                std::to_string(outcome.results.size()) + " of " +
                std::to_string(f.points) + " points");
    for (const exp::PointResult &r : outcome.results) {
        if (!r.ok)
            violate("sweep point " + std::to_string(r.index) +
                    " failed: " + r.error);
        const auto injected =
            static_cast<std::uint64_t>(pointMetric(r, "injected"));
        const auto delivered =
            static_cast<std::uint64_t>(pointMetric(r, "delivered"));
        const auto failed =
            static_cast<std::uint64_t>(pointMetric(r, "failed"));
        if (delivered + failed != injected)
            violate("sweep point " + std::to_string(r.index) +
                    ": delivered + failed != injected");
        f.injected += injected;
        f.delivered += delivered;
        f.failed += failed;
        f.ticks += static_cast<std::uint64_t>(pointMetric(r, "ticks"));
        f.nacks += static_cast<std::uint64_t>(pointMetric(r, "nacks"));
        f.retries +=
            static_cast<std::uint64_t>(pointMetric(r, "retries"));
        f.compactionMoves += static_cast<std::uint64_t>(
            pointMetric(r, "compaction_moves"));
        f.latency.push_back(pointMetric(r, "mean_latency"));
        f.setupLatency.push_back(pointMetric(r, "mean_setup"));
    }
    return rep;
}

// ------------------------------------------------------------------
// Workloads.

/** The layer a workload sends most of its work to. */
enum class Layer
{
    Event,
    Kernel,
    Hier,
    Sweep,
};

struct Workload
{
    std::string name;
    Layer layer;
    /**
     * A run draws this many independent input sets from its seed and
     * runs each once.  Simulated statistics pool this first pass, so
     * one unlucky input moves them less; every later rep replays a
     * set and must reproduce its facts exactly.
     */
    std::size_t sets;
    /** After the first pass only the first this-many sets are
     *  replayed: the host-time rates pool these, so fewer of them
     *  buy more replays of each in a run. */
    std::size_t replayed;
    /** Input set generation (excluded from every timed phase). */
    std::function<Inputs(std::uint64_t seed)> generate;
    /** One rep on @p in at @p jobs hier threads (ignored off hier). */
    std::function<Rep(const Inputs &in, std::uint32_t jobs)> rep;
};

std::vector<Workload>
workloads()
{
    std::vector<Workload> all;
    all.push_back(Workload{
        "event_open_local", Layer::Event, 4, 4,
        [](std::uint64_t seed) {
            Inputs in;
            in.sends = openLoopSends(seed, kOpenNodes, kOpenRate,
                                     kOpenDistance, kOpenHorizon);
            return in;
        },
        [](const Inputs &in, std::uint32_t) {
            return openLoopRep(openConfig(core::EngineKind::Event, in.seed),
                               in.sends, kOpenPayload, kOpenHorizon,
                               kOpenWarmup);
        }});
    all.push_back(Workload{
        "kernel_open_local", Layer::Kernel, 8, 8,
        [](std::uint64_t seed) {
            Inputs in;
            in.sends = openLoopSends(seed, kOpenNodes, kOpenRate,
                                     kOpenDistance, kOpenHorizon);
            return in;
        },
        [](const Inputs &in, std::uint32_t) {
            return openLoopRep(openConfig(core::EngineKind::Kernel, in.seed),
                               in.sends, kOpenPayload, kOpenHorizon,
                               kOpenWarmup);
        }});
    all.push_back(Workload{
        "hier_local", Layer::Hier, 4, 4,
        [](std::uint64_t seed) {
            Inputs in;
            in.sends = hierSends(seed, kHierNodes, kHierNodes / kHierRings,
                                 kHierMessages, kHierHorizon);
            return in;
        },
        [](const Inputs &in, std::uint32_t jobs) {
            return openLoopRep(
                hierConfig(kHierNodes, kHierRings, jobs, in.seed),
                in.sends, kHierPayload, kHierHorizon, 0);
        }});
    all.push_back(Workload{
        "sweep_points", Layer::Sweep, 8, 2,
        [](std::uint64_t seed) {
            Inputs in;
            in.spec = sweepSpecJson(seed);
            return in;
        },
        [](const Inputs &in, std::uint32_t) { return sweepRep(in.spec); }});
    return all;
}

/** The run's input sets: set i is generated from substream i of the
 *  run seed, which also seeds the engine. */
std::vector<Inputs>
inputSets(const Workload &w, std::uint64_t seed)
{
    std::vector<Inputs> sets;
    for (std::size_t i = 0; i < w.sets; ++i) {
        const std::uint64_t set_seed = sim::Random(seed).split(i).next();
        Inputs in = w.generate(set_seed);
        in.seed = set_seed;
        sets.push_back(std::move(in));
    }
    return sets;
}

/**
 * Run reps of @p w - one pass over @p sets, then cycling through the
 * replayed ones - until @p budget seconds pass and at least
 * @p min_reps ran.  A rep must reproduce the facts of the earlier rep
 * on the same input set - in @p reference when given (another pass),
 * else in this pass.
 */
std::vector<Rep>
repeat(const Workload &w, const std::vector<Inputs> &sets, double budget,
       std::size_t min_reps, std::uint32_t jobs,
       const std::vector<Rep> *reference)
{
    std::vector<Rep> reps;
    const auto t0 = Clock::now();
    while (reps.size() < min_reps || secondsSince(t0) < budget) {
        const std::size_t i = reps.size();
        const std::size_t set =
            i < sets.size() ? i : (i - sets.size()) % w.replayed;
        tracer.setRep(static_cast<std::uint32_t>(i));
        {
            Scope span(tracer, "rep");
            reps.push_back(w.rep(sets[set], jobs));
        }
        reps.back().set = set;
        const Rep *want = reference ? &(*reference)[set]
                          : i >= sets.size() ? &reps[set]
                                             : nullptr;
        Facts &got = reps.back().facts;
        if (want && !(got == want->facts))
            violate(w.name + ": rep " + std::to_string(i) + " (jobs " +
                    std::to_string(jobs) +
                    ") did not reproduce its input set's facts (digest " +
                    got.digest + " vs " + want->facts.digest + ")");
        // Only the first pass is pooled.  A replay folds its slices
        // into its set's first-pass rep, which keeps the fastest of
        // each, and frees what it allocated: kept per rep, small
        // blocks would scatter through the heap the next engine grows
        // into, and peak memory would vary with the number of reps.
        if (i >= sets.size()) {
            Times &times = reps.back().times;
            std::vector<double> &best = reps[set].times.slices;
            if (times.slices.size() != best.size())
                violate(w.name + ": rep " + std::to_string(i) + " ran " +
                        std::to_string(times.slices.size()) +
                        " slices, not " + std::to_string(best.size()));
            for (std::size_t j = 0;
                 j < std::min(best.size(), times.slices.size()); ++j)
                best[j] = std::min(best[j], times.slices[j]);
            std::vector<double>().swap(times.slices);
            std::vector<double>().swap(times.pointMillis);
            std::vector<double>().swap(got.latency);
            std::vector<double>().swap(got.setupLatency);
            std::string().swap(got.digest);
        }
        if (!violations.empty())
            break;
    }
    return reps;
}

/** The first pass over the @p sets input sets, pooled. */
Facts
pooled(const std::vector<Rep> &reps, std::size_t sets)
{
    Facts f;
    for (std::size_t i = 0; i < std::min(reps.size(), sets); ++i)
        f.add(reps[i].facts);
    return f;
}

/**
 * The least run-phase time of input set @p set: the sum, over the
 * slices of its run phase, of the fastest replay of each slice (which
 * repeat() folded into the set's first-pass rep).  Every replay of a
 * slice does the same work, so its fastest replay is the one least
 * slowed by the rest of the host.  On a shared host other tenants
 * slow every rep by up to ~2x for stretches of 5-20 s; that moves a
 * median with the stretch but leaves the minimum as long as each
 * slice ran once in a quiet moment.
 */
double
fastestRun(const std::vector<Rep> &reps, std::size_t set)
{
    const std::vector<double> &best = reps[set].times.slices;
    return std::accumulate(best.begin(), best.end(), 0.0);
}

/**
 * A rate over the first @p sets input sets: the sum of value(rep)
 * over them divided by the sum of their fastestRun (plus, with
 * @p with_setup, each set's fastest set-up).  Pooling the sets keeps
 * one unlucky input from moving the rate.
 */
template <typename V>
double
pooledRate(const std::vector<Rep> &reps, std::size_t sets, V &&value,
           bool with_setup)
{
    double total = 0.0;
    double time = 0.0;
    for (std::size_t set = 0; set < std::min(reps.size(), sets); ++set) {
        total += value(reps[set]);
        time += fastestRun(reps, set);
        if (!with_setup)
            continue;
        double setup = reps[set].times.setup;
        for (const Rep &r : reps)
            if (r.set == set)
                setup = std::min(setup, r.times.setup);
        time += setup;
    }
    return ratio(total, time);
}

template <typename F>
double
medianOf(const std::vector<Rep> &reps, F &&field)
{
    std::vector<double> v;
    for (const Rep &r : reps)
        v.push_back(field(r));
    return median(std::move(v));
}

double
medianRun(const std::vector<Rep> &reps)
{
    return medianOf(reps, [](const Rep &r) { return r.times.run; });
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

// ------------------------------------------------------------------
// Output.

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
hostFingerprint()
{
    std::string cpu = "unknown";
    {
        std::ifstream info("/proc/cpuinfo");
        std::string line;
        while (std::getline(info, line)) {
            if (line.rfind("model name", 0) == 0) {
                cpu = line.substr(line.find(':') + 2);
                break;
            }
        }
    }
#if defined(__clang__)
    const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = "g++ " __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    std::string sanitizer;
#if defined(__SANITIZE_ADDRESS__)
    sanitizer += "address ";
#endif
#if defined(__SANITIZE_THREAD__)
    sanitizer += "thread ";
#endif
    const std::string flags = RMB_BENCH_CXX_FLAGS;
    if (flags.find("-fsanitize") != std::string::npos)
        sanitizer += flags;
    const std::string build_type = RMB_BENCH_BUILD_TYPE;
#if defined(NDEBUG)
    const bool asserts = false;
#else
    const bool asserts = true;
#endif
    std::string not_recordable;
    if (!sanitizer.empty())
        not_recordable = "sanitizer build";
    else if (build_type == "Debug" || build_type.empty() || asserts)
        not_recordable = "unoptimised or assert-enabled build";

    obs::JsonWriter w;
    w.beginObject();
    w.field("cpu", cpu);
    w.field("nproc", std::uint64_t{std::max(
                         1u, std::thread::hardware_concurrency())});
    w.field("compiler", compiler);
    w.field("build_type", build_type);
    w.field("cxx_flags", flags);
    w.field("sanitizer",
            sanitizer.empty() ? std::string("none") : sanitizer);
    w.field("recordable", not_recordable.empty());
    if (!not_recordable.empty())
        w.field("not_recordable_because", not_recordable);
    w.endObject();
    return w.str();
}

void
printResult(std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    obs::JsonWriter m;
    m.beginObject();
    for (const Metric &metric : metrics) {
        m.beginObject(metric.name);
        m.raw("value", num(metric.value));
        m.field("unit", metric.unit);
        m.endObject();
    }
    m.endObject();
    obs::JsonWriter w;
    w.beginObject();
    w.field("correct", violations.empty());
    w.field("attempted", std::max<std::uint64_t>(attempted, 1));
    w.field("failed", failed);
    w.raw("metrics", m.str());
    w.endObject();
    std::cout << w.str() << std::endl;
}

/** The run's deterministic summary: same seed, same line. */
void
printFacts(const Workload &w, std::uint64_t seed, const Facts &f)
{
    std::vector<double> latency = f.latency;
    std::sort(latency.begin(), latency.end());
    obs::JsonWriter d;
    d.beginObject();
    d.field("workload", w.name);
    d.field("seed", seed);
    d.field("input_sets", f.reps);
    d.field("digest_fnv", f.digest);
    d.raw("failed_share",
          num(ratio(static_cast<double>(f.incomplete()),
                    static_cast<double>(f.attempted()))));
    d.field("injected", f.injected);
    d.field("delivered", f.delivered);
    d.field("dead_lettered", f.deadLettered);
    d.field("ticks", f.ticks);
    if (w.layer == Layer::Sweep)
        d.field("points", f.points);
    d.field("sim_latency_samples", std::uint64_t{latency.size()});
    d.raw("sim_latency_p50_ticks", num(percentile(latency, 0.50)));
    d.raw("sim_latency_p99_ticks", num(percentile(latency, 0.99)));
    d.endObject();
    std::cout << "facts " << d.str() << "\n";
}

/** End-to-end metrics, tracing off. */
std::vector<Metric>
endToEnd(const std::vector<Rep> &reps, std::size_t sets, const Facts &f)
{
    std::vector<double> latency = f.latency;
    std::sort(latency.begin(), latency.end());
    return {
        {"msgs_per_s", pooledRate(reps, sets, [](const Rep &r) {
             return static_cast<double>(r.facts.delivered);
         }, false),
         "1/s"},
        {"ticks_per_s", pooledRate(reps, sets, [](const Rep &r) {
             return static_cast<double>(r.facts.ticks);
         }, false),
         "1/s"},
        {"points_per_s", pooledRate(reps, sets, [](const Rep &r) {
             return static_cast<double>(
                 std::max<std::uint64_t>(r.facts.points, 1));
         }, true),
         "1/s"},
        {"setup_s",
         medianOf(reps, [](const Rep &r) { return r.times.setup; }), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"sim_latency_p50_ticks", percentile(latency, 0.50), "ticks"},
        {"sim_latency_p99_ticks", percentile(latency, 0.99), "ticks"},
    };
}

/** Sum exclusive ns and calls per phase name over the merged
 *  profile (a phase may appear under several parents). */
void
foldProfile(const obs::prof::PhaseNode &node,
            std::map<std::string, double> &self_ns,
            std::map<std::string, double> &calls)
{
    for (const obs::prof::PhaseNode &child : node.children) {
        self_ns[child.name] += static_cast<double>(child.exclusiveNs());
        calls[child.name] += static_cast<double>(child.calls);
        foldProfile(child, self_ns, calls);
    }
}

/** The profiler phases reported as prof.<phase>.self_s. */
const std::vector<std::string> kProfPhases = {
    "event.inject",
    "event.advance",
    "event.compaction_make",
    "event.compaction_break",
    "kernel.wheel",
    "kernel.make_pass",
    "kernel.compaction_break",
    "hier.window",
    "hier.shard_step",
    "hier.drain_barrier",
    "hier.bridge_exchange",
    "exp.point",
    "exp.aggregate",
};

/**
 * Per-layer metrics from a separate traced pass.  Layers a workload
 * does not reach read 0 (BENCHMARK.md lists which workload exercises
 * which layer).  Counts are per rep, pooled over the input sets.
 */
std::vector<Metric>
perLayer(const Workload &w, const std::vector<Inputs> &sets,
         double budget, double gen_s, std::vector<Rep> &all)
{
    const bool on_kernel = w.layer == Layer::Kernel;
    const bool on_hier = w.layer == Layer::Hier;
    const bool on_sweep = w.layer == Layer::Sweep;
    // Untraced pass: the reference for trace.overhead and the facts
    // every later pass must reproduce.  The traced and j4 passes run
    // each input set once, which bounds the spans kept in memory.
    const std::vector<Rep> plain =
        repeat(w, sets, budget / 2.0, w.sets, 1, nullptr);
    all = plain;
    if (!violations.empty())
        return {};

    // Traced pass: spans on, self-profiler on.
    obs::prof::reset();
    obs::prof::setEnabled(true);
    tracer.setOn(true);
    const std::vector<Rep> traced =
        repeat(w, sets, 0.0, w.sets, 1, &plain);
    obs::prof::setEnabled(false);
    obs::prof::PhaseNode profile;
    {
        Scope span(tracer, "obs.prof.merged");
        profile = obs::prof::merged();
    }
    tracer.setOn(false);
    all.insert(all.end(), traced.begin(), traced.end());

    // hier only: the same inputs on four shard threads.
    double speedup_j4 = 0.0;
    if (on_hier) {
        const std::vector<Rep> j4 =
            repeat(w, sets, 0.0, w.sets, 4, &plain);
        all.insert(all.end(), j4.begin(), j4.end());
        speedup_j4 = ratio(medianRun(plain), medianRun(j4));
    }

    const Facts f = pooled(plain, w.sets);
    const auto n = static_cast<double>(f.reps);
    const auto delivered = static_cast<double>(f.delivered);
    const auto ticks = static_cast<double>(f.ticks);
    const auto events = static_cast<double>(f.events);
    const auto reps = static_cast<double>(traced.size());
    const double run_s = medianRun(traced);

    std::map<std::string, double> self_ns;
    std::map<std::string, double> calls;
    foldProfile(profile, self_ns, calls);
    double attributed_ns = 0.0;
    for (const obs::prof::PhaseNode &top : profile.children)
        attributed_ns += static_cast<double>(top.inclusiveNs);
    double traced_run_ns = 0.0;
    for (const Rep &r : traced)
        traced_run_ns += r.times.run * 1e9;

    std::vector<double> point_ms;
    for (const Rep &r : traced)
        point_ms.insert(point_ms.end(), r.times.pointMillis.begin(),
                        r.times.pointMillis.end());
    std::sort(point_ms.begin(), point_ms.end());
    std::vector<double> setup_latency = f.setupLatency;
    std::sort(setup_latency.begin(), setup_latency.end());

    // Windows per rep: the hier.window scope opens once per window.
    const double windows = calls["hier.window"] / reps;
    auto per_rep_ns = [&](auto denominator) {
        return medianOf(traced, [&](const Rep &r) {
            return ratio(r.times.run * 1e9,
                         static_cast<double>(denominator(r.facts)));
        });
    };
    auto time_of = [&](double Times::*field) {
        return medianOf(traced, [field](const Rep &r) {
            return r.times.*field;
        });
    };

    std::vector<Metric> m = {
        {"sim.events", events / n, "count"},
        {"sim.events_per_msg", ratio(events, delivered), "ratio"},
        {"sim.ns_per_event",
         on_sweep ? 0.0
                 : per_rep_ns([](const Facts &x) { return x.events; }),
         "ns"},
        {"sim.latency_samples", static_cast<double>(f.latency.size()),
         "count"},
        {"workload.gen_s", gen_s, "s"},
        {"rmb.construct_s", on_sweep ? 0.0 : time_of(&Times::construct),
         "s"},
        {"rmb.send_ns", tracer.meanNs("net.send"), "ns"},
        {"rmb.run_s", run_s, "s"},
        {"rmb.compaction_moves_per_msg",
         ratio(static_cast<double>(f.compactionMoves), delivered),
         "ratio"},
        {"rmb.cycle_flips_per_tick",
         ratio(static_cast<double>(f.cycleFlips), ticks), "ratio"},
        {"net.nacks_per_msg",
         ratio(static_cast<double>(f.nacks), delivered), "ratio"},
        {"net.retries_per_msg",
         ratio(static_cast<double>(f.retries), delivered), "ratio"},
        {"net.inject_success_ratio",
         ratio(delivered, delivered + static_cast<double>(f.retries)),
         "ratio"},
        {"net.setup_latency_p50_ticks", percentile(setup_latency, 0.50),
         "ticks"},
        {"rmb.segment_util", f.segmentUtil / n, "ratio"},
        {"rmb.audit_s", time_of(&Times::audit), "s"},
        {"rmb.digest_s", time_of(&Times::digest), "s"},
        {"kernel.ns_per_tick",
         on_kernel
             ? per_rep_ns([](const Facts &x) { return x.ticks; })
             : 0.0,
         "ns"},
        {"kernel.compaction_moves_per_tick",
         on_kernel
             ? ratio(static_cast<double>(f.compactionMoves), ticks)
             : 0.0,
         "ratio"},
        {"hier.parent_events",
         on_hier ? static_cast<double>(f.parentEvents) / n : 0.0,
         "count"},
        {"hier.shard_imbalance", f.shardImbalance / n, "ratio"},
        {"hier.bridge.arrivals",
         static_cast<double>(f.bridgeArrivals) / n, "count"},
        {"hier.deflection_ratio",
         ratio(static_cast<double>(f.bridgeDeflections),
               static_cast<double>(f.bridgeArrivals)),
         "ratio"},
        {"hier.windows", windows, "count"},
        {"hier.ticks_per_window", ratio(ticks / n, windows), "ticks"},
        {"hier.self_speedup_j4", speedup_j4, "ratio"},
        {"exp.materialise_s", on_sweep ? time_of(&Times::setup) : 0.0,
         "s"},
        {"exp.point_ms_p50", percentile(point_ms, 0.50), "ms"},
        {"exp.point_ms_p90", percentile(point_ms, 0.90), "ms"},
        {"exp.point_samples", static_cast<double>(point_ms.size()),
         "count"},
        {"exp.aggregate_s", time_of(&Times::aggregate), "s"},
        {"obs.report_json_s", time_of(&Times::toJson), "s"},
        {"obs.report_bytes", static_cast<double>(f.reportBytes) / n,
         "bytes"},
    };
    for (const std::string &phase : kProfPhases)
        m.push_back({"prof." + phase + ".self_s",
                     self_ns[phase] / reps / 1e9, "s"});
    m.push_back({"prof.unattributed_share",
                 std::max(0.0, 1.0 - ratio(attributed_ns, traced_run_ns)),
                 "ratio"});
    m.push_back(
        {"trace.overhead", ratio(run_s, medianRun(plain)), "ratio"});
    return m;
}

// ------------------------------------------------------------------
// Self-check at reduced size.

bool
selfCheck(std::uint64_t seed)
{
    bool ok = true;
    auto check = [&ok](bool pass, const std::string &what) {
        std::cout << (pass ? "ok   " : "FAIL ") << what << "\n";
        ok = ok && pass;
    };

    // engine_diff contract on the open-loop shape.
    {
        const auto sends = openLoopSends(seed, kOpenNodes, kOpenRate,
                                         kOpenDistance, 4'000);
        const std::string event =
            openLoopRep(openConfig(core::EngineKind::Event, seed), sends,
                        kOpenPayload, 4'000, 0)
                .facts.digest;
        const std::string kernel =
            openLoopRep(openConfig(core::EngineKind::Kernel, seed), sends,
                        kOpenPayload, 4'000, 0)
                .facts.digest;
        check(event == kernel, "open-loop shape (256 x 8, 4k ticks): "
                               "event digest " + event +
                                   " == kernel digest " + kernel);
    }
    // Shard-count neutrality on the hier_local shape, and on both
    // open-loop shapes the timing slices leave the outcome as one
    // uninterrupted runUntil gives it.
    {
        const auto sends = hierSends(seed, 1024, 128, 512, 4'000);
        auto digest = [&](std::uint32_t jobs, sim::Tick slice) {
            return openLoopRep(hierConfig(1024, 8, jobs, seed), sends,
                               kHierPayload, 4'000, 0, slice)
                .facts.digest;
        };
        const std::string j1 = digest(1, kSliceTicks);
        const std::string j4 = digest(4, kSliceTicks);
        const std::string whole = digest(1, 4'000);
        check(j1 == j4, "hier_local shape (1024 nodes, 8 rings): j1 "
                        "digest " + j1 + " == j4 digest " + j4);
        check(j1 == whole, "hier_local shape: sliced digest " + j1 +
                               " == unsliced digest " + whole);
    }
    {
        const auto sends = openLoopSends(seed, kOpenNodes, kOpenRate,
                                         kOpenDistance, 4'000);
        core::RmbConfig cfg = flatConfig(kOpenNodes, kOpenBuses,
                                         core::EngineKind::Event, seed);
        cfg.verify = core::VerifyLevel::Off;
        auto digest = [&](sim::Tick slice) {
            return openLoopRep(cfg, sends, kOpenPayload, 4'000, 0, slice)
                .facts.digest;
        };
        const std::string sliced = digest(kSliceTicks);
        const std::string whole = digest(4'000);
        check(sliced == whole,
              "event_open_local shape (4k ticks): sliced digest " +
                  sliced + " == unsliced digest " + whole);
    }
    // A seed fixes the inputs; another seed changes them.
    for (const Workload &w : workloads()) {
        const auto a = inputSets(w, seed);
        check(a == inputSets(w, seed) && a != inputSets(w, seed + 1) &&
                  a[0] != a[1],
              w.name + " inputs: same seed same, next seed and next "
                       "input set differ");
    }
    return ok && violations.empty();
}

int
usage(const std::string &why)
{
    std::cerr << "rmbbench: " << why
              << "\nusage: rmbbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--spans FILE]\n"
                 "       rmbbench --selfcheck [--seed N]\n";
    return 2;
}

bool
parseUint(const std::string &text, std::uint64_t &out)
{
    const char *end = text.data() + text.size();
    const auto res = std::from_chars(text.data(), end, out);
    return !text.empty() && res.ec == std::errc() && res.ptr == end;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name;
    std::string spans_path;
    std::uint64_t seed = 1;
    std::uint64_t seconds = 10;
    std::uint64_t trace = 0;
    bool self_check = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--selfcheck") {
            self_check = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage("missing value for " + arg);
        const std::string value = argv[++i];
        bool good = true;
        if (arg == "--workload")
            workload_name = value;
        else if (arg == "--spans")
            spans_path = value;
        else if (arg == "--seed")
            good = parseUint(value, seed);
        else if (arg == "--seconds")
            good = parseUint(value, seconds) && seconds >= 1 &&
                   seconds <= 120;
        else if (arg == "--trace")
            good = parseUint(value, trace) && trace <= 1;
        else
            return usage("unknown argument " + arg);
        if (!good)
            return usage("bad value for " + arg + ": " + value);
    }

    std::cout << "host " << hostFingerprint() << "\n";
    if (self_check)
        return selfCheck(seed) ? 0 : 1;

    const std::vector<Workload> all = workloads();
    const auto it = std::find_if(
        all.begin(), all.end(),
        [&](const Workload &w) { return w.name == workload_name; });
    if (it == all.end())
        return usage("unknown workload '" + workload_name + "'");
    const Workload &w = *it;

    const auto g0 = Clock::now();
    const std::vector<Inputs> sets = inputSets(w, seed);
    const double gen_s = secondsSince(g0);

    const auto budget = static_cast<double>(seconds);
    std::vector<Rep> reps;
    std::vector<Metric> metrics;
    if (trace == 0) {
        // Replays are checked as the budget allows; the traced run
        // always replays every input set.
        reps = repeat(w, sets, budget, w.sets, 1, nullptr);
        metrics = endToEnd(reps, w.replayed, pooled(reps, w.sets));
    } else {
        metrics = perLayer(w, sets, budget, gen_s, reps);
    }
    if (!spans_path.empty() && !tracer.write(spans_path))
        violate("could not write spans to " + spans_path);

    printFacts(w, seed, pooled(reps, w.sets));
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const Rep &r : reps) {
        attempted += r.facts.attempted();
        failed += r.facts.incomplete();
    }
    printResult(attempted, failed, metrics);
    return violations.empty() ? 0 : 1;
}
