/**
 * @file
 * rmbsim - command-line driver for the RMB simulator.
 *
 * Runs a workload against any of the implemented networks and
 * prints a statistics table; can also record the generated workload
 * to a trace file or replay a previously recorded trace, so the
 * exact same communication pattern can be compared across networks.
 *
 * Examples:
 *   rmbsim --network rmb --nodes 32 --buses 4 \
 *          --workload bitrev --payload 64
 *   rmbsim --network torus --width 8 --height 4 --buses 2 \
 *          --workload uniform --rate 0.002 --duration 50000
 *   rmbsim --network rmb --nodes 16 --buses 4 \
 *          --workload uniform --rate 0.001 --duration 20000 \
 *          --record /tmp/u.trace
 *   rmbsim --network multibus --nodes 16 --buses 4 \
 *          --replay /tmp/u.trace
 */

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/fattree.hh"
#include "baselines/hypercube.hh"
#include "baselines/mesh.hh"
#include "baselines/multibus.hh"
#include "baselines/wormhole_ring.hh"
#include "common/bitutils.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "obs/json.hh"
#include "obs/prof.hh"
#include "obs/run_report.hh"
#include "obs/sinks.hh"
#include "obs/timeline.hh"
#include "rmb/dual_ring.hh"
#include "rmb/engine.hh"
#include "rmb/fault_plan.hh"
#include "rmb/grid.hh"
#include "rmb/hier/hier_network.hh"
#include "rmb/network.hh"
#include "report/report.hh"
#include "rmb/torus.hh"
#include "sim/simulator.hh"
#include "workload/driver.hh"
#include "workload/permutation.hh"
#include "workload/trace.hh"
#include "workload/traffic.hh"

namespace {

using namespace rmb;

struct Options
{
    std::string network = "rmb";
    /** --engine: RMB backend (event | kernel). */
    std::string engine = "event";
    /** --topology: flat single ring or hier multi-ring (rmb only). */
    std::string topology = "flat";
    std::uint32_t localRings = 4;
    std::uint32_t globalBuses = 0;
    sim::Tick bridgeLatency = 8;
    std::uint32_t bridgeBuffer = 4;
    /** --jobs: shard threads for hier runs (0 = auto).  Result
     *  neutral: any value produces byte-identical reports. */
    std::uint32_t jobs = 1;
    std::uint32_t nodes = 16;
    std::uint32_t buses = 4;
    std::uint32_t width = 4;
    std::uint32_t height = 4;
    std::string dims = "4x4x4";
    std::string workload = "randperm";
    double rate = 0.001;
    std::uint32_t payload = 32;
    sim::Tick duration = 50'000;
    std::uint64_t seed = 1;
    std::string blocking = "nack";
    std::string header = "lowest";
    std::uint32_t sendPorts = 1;
    std::uint32_t receivePorts = 1;
    bool compaction = true;
    /** --fault-mtbf: 0 keeps the transient-fault process off. */
    sim::Tick faultMtbf = 0;
    sim::Tick faultMttrMin = 500;
    sim::Tick faultMttrMax = 2'000;
    /** --fault-permanent-prob: chance a scheduled fault never
     *  repairs (permanent segment loss). */
    double faultPermanentProb = 0.0;
    /** --fault-node-prob: chance a scheduled fault takes out every
     *  level at its gap (whole-node failure domain). */
    double faultNodeProb = 0.0;
    /** --fault-bridge-prob: chance a scheduled fault lands on a hier
     *  bridge instead of a segment (topology=hier only). */
    double faultBridgeProb = 0.0;
    /** --fault-plan FILE: replayable JSON fault campaign. */
    std::string faultPlanPath;
    sim::Tick watchdog = 0;
    std::uint32_t maxRetries = 0;
    std::string record;
    std::string replay;
    bool csv = false;
    bool json = false;
    /** --json FILE: write an obs::RunReport there instead of
     *  printing the stats JSON to stdout. */
    std::string jsonPath;
    /** --trace FILE: stream every protocol event there as JSONL. */
    std::string tracePath;
    /** --timeline T: sample period in ticks; 0 = duration/100.
     *  An explicit period additionally enables per-shard series on
     *  hier runs (they scale with ring count, so they are opt-in). */
    sim::Tick timeline = 0;
    bool heatmap = false;
    /** --profile: record host-time phases; adds a "profile" report
     *  section (excluded from digests/baseline comparison — host
     *  time is nondeterministic) and a stdout phase table. */
    bool profile = false;
};

/**
 * Prints the option summary and exits: to stdout with code 0 when
 * the user asked for it (--help), to stderr with code 2 on a
 * command-line mistake.
 */
[[noreturn]] void
usage(int code = 2)
{
    (code == 0 ? std::cout : std::cerr)
        << "usage: rmbsim [options]\n"
           "  --network   rmb|dualring|torus|grid|ring|mesh|"
           "hypercube|ehc|fattree|multibus|wormhole\n"
           "  --engine    event|kernel    (rmb backend)\n"
           "  --topology  flat|hier       (rmb only)\n"
           "  --local-rings M            (hier: local ring count)\n"
           "  --global-buses K           (hier: global ring levels,\n"
           "                              0 = same as --buses)\n"
           "  --bridge-latency T         (hier: ticks per bridge hop)\n"
           "  --bridge-buffer B          (hier: slots per bridge)\n"
           "  --jobs N                   (hier: shard threads,\n"
           "                              0 = auto; result-neutral)\n"
           "  --nodes N --buses K        (ring-like networks)\n"
           "  --width W --height H       (torus / mesh)\n"
           "  --dims AxBxC                (grid)\n"
           "  --workload  randperm|bitrev|shuffle|transpose|"
           "tornado|rot:<s>|uniform|local:<d>|hotspot:<f>\n"
           "  --rate R --duration T      (stochastic workloads)\n"
           "  --payload FLITS --seed S\n"
           "  --blocking  nack|wait|wait:<timeout>\n"
           "  --header    lowest|straight\n"
           "  --ports S,R                (send,receive ports/PE)\n"
           "  --no-compaction\n"
           "  --fault-mtbf T             (transient faults, mean\n"
           "                              ticks between faults)\n"
           "  --fault-mttr MIN,MAX       (repair delay range)\n"
           "  --fault-permanent-prob P   (chance a fault never\n"
           "                              repairs)\n"
           "  --fault-node-prob P        (chance a fault kills a\n"
           "                              whole node's levels)\n"
           "  --fault-bridge-prob P      (hier: chance a fault hits\n"
           "                              a bridge)\n"
           "  --fault-plan FILE          (replayable JSON fault\n"
           "                              campaign, see docs/FAULTS"
           ".md)\n"
           "  --watchdog T               (source watchdog timeout)\n"
           "  --max-retries N            (0 = unlimited)\n"
           "  --record FILE | --replay FILE\n"
           "  --csv | --json [FILE] | --heatmap\n"
           "  --trace FILE               (JSONL protocol events)\n"
           "  --timeline T               (report sample period,\n"
           "                              default duration/100;\n"
           "                              explicit T adds per-shard\n"
           "                              series on hier runs)\n"
           "  --profile                  (host-time self-profiler:\n"
           "                              stdout phase table plus a\n"
           "                              \"profile\" report section)\n"
           "  --help | -h\n"
           "\n"
           "topology/engine support matrix:\n"
           "  network=rmb        topology=flat|hier, engine=event|"
           "kernel\n"
           "  network=dualring/torus/grid  topology=flat, "
           "engine=event\n"
           "  other networks     no --topology / --engine\n";
    std::exit(code);
}

/**
 * Strict numeric flag values: the whole of @p text must be a plain
 * decimal number.  Anything else - empty input, junk, a sign on an
 * unsigned flag, overflow, NaN or infinity - is a usage error that
 * names @p flag and exits 2.
 */
[[noreturn]] void
badValue(const std::string &flag, const std::string &text,
         const std::string &want)
{
    std::cerr << "rmbsim: " << flag << " expects " << want
              << ", got '" << text << "'\n";
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text,
              std::uint64_t max = UINT64_MAX)
{
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec == std::errc::invalid_argument || ptr != end)
        badValue(flag, text, "a non-negative integer");
    if (ec == std::errc::result_out_of_range || v > max)
        badValue(flag, text, "an integer <= " + std::to_string(max));
    return v;
}

std::uint32_t
parseU32(const std::string &flag, const std::string &text)
{
    return static_cast<std::uint32_t>(
        parseUnsigned(flag, text, UINT32_MAX));
}

double
parseReal(const std::string &flag, const std::string &text)
{
    double v = 0.0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc{} || ptr != end || !std::isfinite(v))
        badValue(flag, text, "a finite number");
    return v;
}

Options
parse(int argc, char **argv)
{
    Options o;
    auto need = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usage();
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--network") {
            o.network = need(i);
        } else if (arg == "--engine") {
            o.engine = need(i);
        } else if (arg == "--topology") {
            o.topology = need(i);
        } else if (arg == "--local-rings") {
            o.localRings = parseU32(arg, need(i));
        } else if (arg == "--global-buses") {
            o.globalBuses = parseU32(arg, need(i));
        } else if (arg == "--bridge-latency") {
            o.bridgeLatency = parseUnsigned(arg, need(i));
        } else if (arg == "--bridge-buffer") {
            o.bridgeBuffer = parseU32(arg, need(i));
        } else if (arg == "--jobs") {
            o.jobs = parseU32(arg, need(i));
        } else if (arg == "--nodes") {
            o.nodes = parseU32(arg, need(i));
        } else if (arg == "--buses") {
            o.buses = parseU32(arg, need(i));
        } else if (arg == "--width") {
            o.width = parseU32(arg, need(i));
        } else if (arg == "--height") {
            o.height = parseU32(arg, need(i));
        } else if (arg == "--dims") {
            o.dims = need(i);
        } else if (arg == "--workload") {
            o.workload = need(i);
        } else if (arg == "--rate") {
            o.rate = parseReal(arg, need(i));
        } else if (arg == "--payload") {
            o.payload = parseU32(arg, need(i));
        } else if (arg == "--duration") {
            o.duration = parseUnsigned(arg, need(i));
        } else if (arg == "--seed") {
            o.seed = parseUnsigned(arg, need(i));
        } else if (arg == "--blocking") {
            o.blocking = need(i);
        } else if (arg == "--header") {
            o.header = need(i);
        } else if (arg == "--ports") {
            const std::string v = need(i);
            const auto comma = v.find(',');
            if (comma == std::string::npos)
                usage();
            o.sendPorts = parseU32(arg, v.substr(0, comma));
            o.receivePorts = parseU32(arg, v.substr(comma + 1));
        } else if (arg == "--no-compaction") {
            o.compaction = false;
        } else if (arg == "--fault-mtbf") {
            o.faultMtbf = parseUnsigned(arg, need(i));
        } else if (arg == "--fault-mttr") {
            const std::string v = need(i);
            const auto comma = v.find(',');
            if (comma == std::string::npos)
                usage();
            o.faultMttrMin = parseUnsigned(arg, v.substr(0, comma));
            o.faultMttrMax = parseUnsigned(arg, v.substr(comma + 1));
        } else if (arg == "--fault-permanent-prob") {
            o.faultPermanentProb = parseReal(arg, need(i));
        } else if (arg == "--fault-node-prob") {
            o.faultNodeProb = parseReal(arg, need(i));
        } else if (arg == "--fault-bridge-prob") {
            o.faultBridgeProb = parseReal(arg, need(i));
        } else if (arg == "--fault-plan") {
            o.faultPlanPath = need(i);
        } else if (arg == "--watchdog") {
            o.watchdog = parseUnsigned(arg, need(i));
        } else if (arg == "--max-retries") {
            o.maxRetries = parseU32(arg, need(i));
        } else if (arg == "--record") {
            o.record = need(i);
        } else if (arg == "--replay") {
            o.replay = need(i);
        } else if (arg == "--csv") {
            o.csv = true;
        } else if (arg == "--json") {
            o.json = true;
            // Optional argument: a bare --json keeps the legacy
            // stats-JSON-to-stdout behaviour.
            if (i + 1 < argc && argv[i + 1][0] != '-')
                o.jsonPath = argv[++i];
        } else if (arg == "--trace") {
            o.tracePath = need(i);
        } else if (arg == "--timeline") {
            o.timeline = parseUnsigned(arg, need(i));
        } else if (arg == "--heatmap") {
            o.heatmap = true;
        } else if (arg == "--profile") {
            o.profile = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            usage();
        }
    }
    return o;
}

core::RmbConfig
rmbConfig(const Options &o)
{
    core::RmbConfig cfg;
    if (o.engine == "kernel")
        cfg.engine = core::EngineKind::Kernel;
    else if (o.engine != "event")
        fatal("unknown engine '", o.engine, "' (event | kernel)");
    if (o.topology == "hier") {
        cfg.topology = core::TopologyKind::Hier;
        cfg.localRings = o.localRings;
        cfg.globalBuses = o.globalBuses;
        cfg.bridgeLatency = o.bridgeLatency;
        cfg.bridgeBuffer = o.bridgeBuffer;
        cfg.shardJobs = o.jobs;
    } else if (o.topology != "flat") {
        fatal("unknown topology '", o.topology,
              "' (flat | hier)");
    }
    cfg.numNodes = o.nodes;
    cfg.numBuses = o.buses;
    cfg.seed = o.seed;
    cfg.enableCompaction = o.compaction;
    if (o.faultMtbf > 0) {
        cfg.transientFaults = true;
        cfg.faultMtbf = o.faultMtbf;
        cfg.faultMttrMin = o.faultMttrMin;
        cfg.faultMttrMax = o.faultMttrMax;
        cfg.faultPermanentProb = o.faultPermanentProb;
        cfg.faultNodeProb = o.faultNodeProb;
        cfg.faultBridgeProb = o.faultBridgeProb;
    }
    // A scripted fault plan hits occupied segments too, so it needs
    // the same recovery machinery as the stochastic schedule.
    if (!o.faultPlanPath.empty())
        cfg.transientFaults = true;
    cfg.watchdogTimeout = o.watchdog;
    cfg.maxRetries = o.maxRetries;
    cfg.sendPorts = o.sendPorts;
    cfg.receivePorts = o.receivePorts;
    cfg.headerPolicy = o.header == "straight"
                           ? core::HeaderPolicy::PreferStraight
                           : core::HeaderPolicy::PreferLowest;
    if (o.blocking == "wait") {
        cfg.blocking = core::BlockingPolicy::Wait;
    } else if (o.blocking.rfind("wait:", 0) == 0) {
        cfg.blocking = core::BlockingPolicy::Wait;
        cfg.headerTimeout =
            parseUnsigned("--blocking", o.blocking.substr(5));
    } else if (o.blocking == "nack") {
        cfg.blocking = core::BlockingPolicy::NackRetry;
    } else {
        fatal("unknown blocking policy '", o.blocking, "'");
    }
    return cfg;
}

std::unique_ptr<net::Network>
makeNetwork(const Options &o, sim::Simulator &simulator)
{
    baseline::CircuitConfig circuit;
    circuit.seed = o.seed;
    // Fail combinations the backends would silently ignore: the
    // hier topology and the kernel engine exist only behind the
    // core::Engine factory, i.e. --network rmb.
    if (o.topology == "hier" && o.network != "rmb") {
        fatal("--topology hier is only supported with --network "
              "rmb; '", o.network,
              "' has its own fixed topology (drop --topology, or "
              "use --network rmb)");
    }
    if (o.engine == "kernel" && o.network != "rmb") {
        fatal("--engine kernel is only supported with --network "
              "rmb; '", o.network,
              "' would silently ignore it (drop --engine, or use "
              "--network rmb)");
    }
    if (o.network == "rmb") {
        // Backend selection (--engine) happens inside makeEngine;
        // everything downstream sees only the core::Engine contract.
        return core::makeEngine(simulator, rmbConfig(o));
    }
    if (o.network == "dualring") {
        return std::make_unique<core::DualRingRmbNetwork>(
            simulator, rmbConfig(o));
    }
    if (o.network == "torus") {
        core::RmbConfig cfg = rmbConfig(o);
        return std::make_unique<core::RmbTorusNetwork>(
            simulator, o.width, o.height, cfg);
    }
    if (o.network == "grid") {
        std::vector<std::uint32_t> dims;
        std::size_t pos = 0;
        while (pos < o.dims.size()) {
            const auto x = o.dims.find('x', pos);
            const auto part = o.dims.substr(
                pos, x == std::string::npos ? std::string::npos
                                            : x - pos);
            if (part.empty())
                fatal("bad --dims '", o.dims, "'");
            dims.push_back(parseU32("--dims", part));
            pos = x == std::string::npos ? o.dims.size() : x + 1;
        }
        return std::make_unique<core::RmbGridNetwork>(
            simulator, dims, rmbConfig(o));
    }
    if (o.network == "ring") {
        return std::make_unique<baseline::IdealRingNetwork>(
            simulator, o.nodes, o.buses, circuit);
    }
    if (o.network == "mesh") {
        return std::make_unique<baseline::MeshNetwork>(
            simulator, o.width, o.height, circuit);
    }
    if (o.network == "hypercube" || o.network == "ehc") {
        if (!isPowerOfTwo(o.nodes))
            fatal("hypercube needs --nodes = 2^n");
        return std::make_unique<baseline::HypercubeNetwork>(
            simulator, log2Floor(o.nodes), circuit,
            o.network == "ehc");
    }
    if (o.network == "fattree") {
        return std::make_unique<baseline::FatTreeNetwork>(
            simulator, o.nodes, o.buses, circuit);
    }
    if (o.network == "multibus") {
        return std::make_unique<baseline::MultiBusNetwork>(
            simulator, o.nodes, o.buses, circuit);
    }
    if (o.network == "wormhole") {
        baseline::WormholeConfig cfg;
        cfg.vcsPerClass = o.buses / 2 ? o.buses / 2 : 1;
        return std::make_unique<baseline::WormholeRingNetwork>(
            simulator, o.nodes, cfg);
    }
    fatal("unknown network '", o.network, "'");
}

/** Batch (permutation) workloads return a pair list; stochastic
 *  ones return empty and use rate/duration. */
workload::PairList
batchWorkload(const Options &o, net::NodeId n, sim::Random &rng)
{
    const std::string &w = o.workload;
    if (w == "randperm")
        return workload::toPairs(
            workload::randomFullTraffic(n, rng));
    if (w == "bitrev")
        return workload::toPairs(workload::bitReversal(n));
    if (w == "shuffle")
        return workload::toPairs(workload::perfectShuffle(n));
    if (w == "transpose")
        return workload::toPairs(workload::transpose(n));
    if (w == "tornado")
        return workload::toPairs(workload::rotation(n, n / 2));
    if (w.rfind("rot:", 0) == 0) {
        return workload::toPairs(workload::rotation(
            n, static_cast<net::NodeId>(
                   parseUnsigned("--workload", w.substr(4)) % n)));
    }
    return {};
}

std::unique_ptr<workload::TrafficPattern>
stochasticWorkload(const Options &o, net::NodeId n)
{
    const std::string &w = o.workload;
    if (w == "uniform")
        return std::make_unique<workload::UniformTraffic>(n);
    if (w.rfind("local:", 0) == 0) {
        return std::make_unique<workload::LocalRingTraffic>(
            n, parseU32("--workload", w.substr(6)));
    }
    if (w.rfind("hotspot:", 0) == 0) {
        return std::make_unique<workload::HotSpotTraffic>(
            n, 0, parseReal("--workload", w.substr(8)));
    }
    return nullptr;
}

/**
 * FNV-1a digest of every result-affecting option, hex-encoded.
 *
 * Deliberately excludes `jobs`: shard parallelism is result-neutral
 * (reports are byte-compared across --jobs values), so two runs that
 * differ only in thread count must share a digest.  Output paths
 * (--json/--trace/--record) are excluded for the same reason.
 */
std::string
configDigest(const Options &o)
{
    std::ostringstream joined;
    joined << o.network << '|' << o.engine << '|' << o.topology
           << '|' << o.localRings << '|' << o.globalBuses << '|'
           << o.bridgeLatency << '|' << o.bridgeBuffer << '|'
           << o.nodes << '|' << o.buses << '|' << o.width << '|'
           << o.height << '|' << o.dims << '|' << o.workload << '|'
           << o.rate << '|' << o.payload << '|' << o.duration << '|'
           << o.seed << '|' << o.blocking << '|' << o.header << '|'
           << o.sendPorts << ',' << o.receivePorts << '|'
           << o.compaction << '|' << o.faultMtbf << '|'
           << o.faultMttrMin << ',' << o.faultMttrMax << '|'
           << o.faultPermanentProb << '|' << o.faultNodeProb << '|'
           << o.faultBridgeProb << '|' << o.faultPlanPath << '|'
           << o.watchdog << '|' << o.maxRetries << '|' << o.replay;
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : joined.str())
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    std::ostringstream hex;
    hex << std::hex << h;
    return hex.str();
}

/** Seed / config / build identity for reproducing any artifact. */
std::string
provenanceJson(const Options &o)
{
    obs::JsonWriter json;
    json.beginObject();
    json.field("seed", o.seed);
    json.field("config_digest", configDigest(o));
#ifdef NDEBUG
    json.field("build_type", "release");
#else
    json.field("build_type", "debug");
#endif
    json.field("engine", o.engine);
    json.field("topology", o.topology);
    json.endObject();
    return json.str();
}

/** Fixed-schema per-kind event tallies for the report. */
std::string
traceCountsJson(const obs::CountingSink &counts)
{
    obs::JsonWriter json;
    json.beginObject();
    json.beginObject("events");
    for (std::size_t k = 0; k < obs::kNumEventKinds; ++k) {
        const auto kind = static_cast<obs::EventKind>(k);
        json.field(obs::eventKindName(kind), counts.count(kind));
    }
    json.endObject();
    json.field("total", counts.total());
    json.endObject();
    return json.str();
}

void
writeReport(const Options &o, const net::Network &network,
            sim::Tick now, const obs::CountingSink *counts,
            const obs::TimelineSampler *timeline)
{
    obs::RunReport report("rmbsim");
    report.set("network", o.network);
    if (o.topology != "flat")
        report.set("topology", o.topology);
    report.set("workload", o.workload);
    report.set("nodes", std::uint64_t{network.numNodes()});
    report.set("payload", std::uint64_t{o.payload});
    report.set("seed", o.seed);
    report.set("ticks", static_cast<std::uint64_t>(now));
    report.setRaw("provenance", provenanceJson(o));
    report.setRaw("stats", report::statsToJson(network, now));
    report.setRaw("metrics", network.metrics().snapshot(now));
    if (counts != nullptr)
        report.setRaw("trace", traceCountsJson(*counts));
    if (timeline != nullptr)
        report.setRaw("timeline", timeline->toJson());
    // Host wall-clock is nondeterministic by nature, so "profile"
    // must stay the report's only nondeterministic section: digests
    // ignore it and `sweep compare` never baselines it (the ctest
    // strip-compare pair proves the rest of the report is
    // byte-identical across runs).
    if (o.profile)
        report.setRaw("profile", obs::prof::reportJson());
    report.write(o.jsonPath);
}

/** Stdout rendering of the merged host-time phase tree. */
void
printProfile(std::ostream &os)
{
    const obs::prof::PhaseNode root = obs::prof::merged();
    if (root.children.empty())
        return;
    TextTable t("host profile (wall-clock)",
                {"phase", "calls", "incl ms", "excl ms"});
    const std::function<void(const obs::prof::PhaseNode &,
                             const std::string &)>
        walk = [&](const obs::prof::PhaseNode &node,
                   const std::string &indent) {
            t.addRow({indent + node.name,
                      TextTable::num(node.calls),
                      TextTable::num(node.inclusiveNs / 1e6, 3),
                      TextTable::num(node.exclusiveNs() / 1e6, 3)});
            for (const auto &child : node.children)
                walk(child, indent + "..");
        };
    for (const auto &child : root.children)
        walk(child, "");
    t.print(os);
}

void
printStats(const Options &o, const net::Network &network,
           sim::Tick now,
           const obs::CountingSink *counts = nullptr,
           const obs::TimelineSampler *timeline = nullptr)
{
    if (!o.jsonPath.empty())
        writeReport(o, network, now, counts, timeline);
    if (o.json && o.jsonPath.empty()) {
        std::cout << report::statsToJson(network, now) << "\n";
        if (!o.heatmap)
            return;
    }
    if (o.heatmap) {
        if (const auto *rmb =
                dynamic_cast<const core::Engine *>(&network)) {
            report::utilizationHeatmap(std::cout, *rmb, now);
        }
        if (o.json)
            return;
    }
    const auto &s = network.stats();
    TextTable t("rmbsim results: " + network.name(),
                {"metric", "value"});
    t.addRow({"simulated ticks", TextTable::num(
                                     static_cast<std::uint64_t>(
                                         now))});
    t.addRow({"injected", TextTable::num(s.injected)});
    t.addRow({"delivered", TextTable::num(s.delivered)});
    t.addRow({"failed", TextTable::num(s.failed)});
    t.addRow({"nacks", TextTable::num(s.nacks)});
    t.addRow({"retries", TextTable::num(s.retries)});
    t.addRow({"mean latency", TextTable::num(s.totalLatency.mean(),
                                             1)});
    t.addRow({"p95 latency",
              TextTable::num(s.totalLatency.percentile(95), 1)});
    t.addRow({"mean setup",
              TextTable::num(s.setupLatency.mean(), 1)});
    t.addRow({"mean hops", TextTable::num(s.pathLength.mean(), 2)});
    t.addRow({"peak circuits",
              TextTable::num(static_cast<std::uint64_t>(
                  s.activeCircuits.maximum()))});
    if (const auto *rmb =
            dynamic_cast<const core::Engine *>(&network)) {
        t.addRow({"compaction moves",
                  TextTable::num(rmb->rmbStats().compactionMoves)});
        t.addRow({"max cycle skew",
                  TextTable::num(rmb->rmbStats().maxCycleSkew)});
        t.addRow({"avg segment util %",
                  TextTable::num(
                      100.0 * rmb->averageSegmentUtilization(now),
                      2)});
    }
    if (o.csv)
        t.printCsv(std::cout);
    else
        t.print(std::cout);
    // The phase table only joins the human-readable rendering;
    // machine modes (--csv/--json) carry the profile in the report.
    if (o.profile && !o.csv)
        printProfile(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    // Enabled before any network work so construction phases are
    // captured too; when off, every scope is a single branch.
    obs::prof::setEnabled(o.profile);

    sim::Simulator simulator;
    auto network = makeNetwork(o, simulator);

    if (!o.faultPlanPath.empty()) {
        auto *eng = dynamic_cast<core::Engine *>(network.get());
        if (eng == nullptr) {
            fatal("--fault-plan needs an RMB engine network "
                  "(--network rmb); '", o.network,
                  "' has no fault domain");
        }
        std::ifstream in(o.faultPlanPath);
        if (!in)
            fatal("cannot open fault plan '", o.faultPlanPath, "'");
        std::ostringstream text;
        text << in.rdbuf();
        core::FaultPlan plan;
        std::string error;
        if (!core::FaultPlan::parse(text.str(), plan, error))
            fatal("fault plan '", o.faultPlanPath, "': ", error);
        const std::string mismatch = plan.checkAgainst(*eng);
        if (!mismatch.empty())
            fatal("fault plan '", o.faultPlanPath, "': ", mismatch);
        plan.apply(*eng);
    }

    // Sink stack: --trace streams JSONL; a JSON report additionally
    // keeps per-kind counters (the report's "trace" section).  Both
    // are pure observers, so attaching them never perturbs the run.
    std::unique_ptr<obs::JsonlFileSink> fileSink;
    obs::CountingSink counting;
    std::unique_ptr<obs::TeeSink> tee;
    obs::TraceSink *sink = nullptr;
    const obs::CountingSink *counts = nullptr;
    if (!o.tracePath.empty()) {
        fileSink = std::make_unique<obs::JsonlFileSink>(o.tracePath);
        sink = fileSink.get();
    }
    if (!o.jsonPath.empty()) {
        counts = &counting;
        if (sink != nullptr) {
            tee = std::make_unique<obs::TeeSink>(&counting,
                                                 fileSink.get());
            sink = tee.get();
        } else {
            sink = &counting;
        }
    }
    if (sink != nullptr)
        network->setTraceSink(sink);

    // Timeline sampling for the report: bus/circuit occupancy every
    // `period` ticks until the run has passed `minEnd` and drained.
    std::unique_ptr<obs::TimelineSampler> timeline;
    const auto startTimeline = [&](sim::Tick minEnd) {
        if (o.jsonPath.empty())
            return;
        sim::Tick period = o.timeline;
        if (period == 0)
            period = o.duration / 100 ? o.duration / 100 : 1;
        timeline = std::make_unique<obs::TimelineSampler>(simulator,
                                                          period);
        net::Network *net = network.get();
        // Counter-backed series emit per-window deltas (divide by
        // `period` for a per-tick rate) so saturation onset is
        // visible instead of being averaged into a running total.
        timeline->addCounterSeries("injected", [net] {
            return net->stats().injected.value();
        });
        timeline->addCounterSeries("delivered", [net] {
            return net->stats().delivered.value();
        });
        timeline->addSeries("active_circuits", [net] {
            return static_cast<double>(
                net->stats().activeCircuits.current());
        });
        if (const auto *rmb =
                dynamic_cast<const core::Engine *>(net)) {
            const double segs =
                static_cast<double>(rmb->config().numNodes) *
                static_cast<double>(rmb->config().numBuses);
            timeline->addSeries("live_buses", [rmb] {
                return static_cast<double>(
                    rmb->rmbStats().liveBuses.current());
            });
            timeline->addSeries("segment_occupancy", [rmb, segs] {
                return static_cast<double>(
                           rmb->occupiedSegments()) /
                       segs;
            });
            timeline->addCounterSeries("dead_letters", [rmb] {
                return rmb->rmbStats().deadLettered.value();
            });
        }
        if (auto *hier =
                dynamic_cast<rmb::hier::HierNetwork *>(net)) {
            timeline->addCounterSeries(
                "bridge_deflections", [hier] {
                    return hier->metrics()
                        .counter("hier.bridge.deflections")
                        .value();
                });
            // Per-shard attribution scales with the ring count, so
            // it is opt-in behind an explicit --timeline period.
            // Shard clocks are barrier-synced to parent event times,
            // which keeps every series byte-identical for any
            // --jobs.
            if (o.timeline > 0) {
                // Shards 0..M-1 are the local rings, shard M the
                // global ring.
                for (std::uint32_t s = 0; s <= hier->numRings();
                     ++s) {
                    std::ostringstream prefix;
                    prefix << "shard" << s << '.';
                    const core::Engine &eng = hier->ringEngine(s);
                    timeline->addCounterSeries(
                        prefix.str() + "injected", [&eng] {
                            return eng.stats().injected.value();
                        });
                    timeline->addCounterSeries(
                        prefix.str() + "delivered", [&eng] {
                            return eng.stats().delivered.value();
                        });
                }
            }
        }
        timeline->setStopWhen([net, &simulator, minEnd] {
            return simulator.now() >= minEnd && net->quiescent();
        });
        timeline->start();
    };
    sim::Random rng(o.seed);

    if (!o.replay.empty()) {
        std::ifstream in(o.replay);
        if (!in)
            fatal("cannot open trace '", o.replay, "'");
        const auto trace = workload::readTrace(in);
        startTimeline(trace.empty() ? 0 : trace.back().time);
        const auto r = workload::replayTrace(*network, trace);
        std::cout << "replayed " << r.injected << " events: "
                  << r.delivered << " delivered, " << r.failed
                  << " failed, makespan " << r.makespan
                  << ", mean latency " << r.meanLatency << "\n";
        printStats(o, *network, simulator.now(), counts,
                   timeline.get());
        return 0;
    }

    const auto pairs = batchWorkload(o, network->numNodes(), rng);
    if (!pairs.empty()) {
        startTimeline(0);
        const auto r =
            workload::runBatch(*network, pairs, o.payload);
        std::cout << (r.completed ? "batch completed"
                                  : "batch TIMED OUT")
                  << ": makespan " << r.makespan << "\n";
        if (!o.record.empty()) {
            workload::Trace trace;
            for (const auto &[src, dst] : pairs)
                trace.push_back(
                    workload::TraceEvent{0, src, dst, o.payload});
            std::ofstream out(o.record);
            workload::writeTrace(out, trace);
        }
        printStats(o, *network, simulator.now(), counts,
                   timeline.get());
        return 0;
    }

    auto pattern = stochasticWorkload(o, network->numNodes());
    if (!pattern)
        fatal("unknown workload '", o.workload, "'");
    if (!o.record.empty()) {
        const auto trace = workload::generateTrace(
            *pattern, o.rate, o.payload, o.duration, rng);
        {
            std::ofstream out(o.record);
            if (!out)
                fatal("cannot write trace '", o.record, "'");
            workload::writeTrace(out, trace);
        }
        startTimeline(trace.empty() ? 0 : trace.back().time);
        const auto r = workload::replayTrace(*network, trace);
        std::cout << "recorded " << trace.size() << " events to "
                  << o.record << "; replayed locally: "
                  << r.delivered << " delivered\n";
        printStats(o, *network, simulator.now(), counts,
                   timeline.get());
        return 0;
    }
    startTimeline(o.duration);
    const auto r = workload::runOpenLoop(
        *network, *pattern, o.rate, o.payload, o.duration, rng,
        o.duration / 10);
    std::cout << "open loop: offered " << r.offeredLoad
              << " msgs/node/tick, throughput " << r.throughput
              << ", mean latency " << r.meanLatency << "\n";
    printStats(o, *network, simulator.now(), counts,
               timeline.get());
    return 0;
}
