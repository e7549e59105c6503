/**
 * @file
 * rmbsim - command-line driver for the RMB simulator.
 *
 * Runs a workload against any of the implemented networks and
 * prints a statistics table; can also record the generated workload
 * to a trace file or replay a previously recorded trace, so the
 * exact same communication pattern can be compared across networks.
 * The run recipe is an exp::PointConfig: every recipe flag is a row
 * of the sweep engine's field table, and the network and workload
 * come from the same factory as a sweep point's (exp/eval.hh).
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

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "exp/eval.hh"
#include "exp/spec.hh"
#include "obs/json.hh"
#include "obs/prof.hh"
#include "obs/run_report.hh"
#include "obs/sinks.hh"
#include "obs/timeline.hh"
#include "report/report.hh"
#include "rmb/engine.hh"
#include "rmb/fault_plan.hh"
#include "rmb/hier/hier_network.hh"
#include "sim/simulator.hh"
#include "workload/driver.hh"
#include "workload/trace.hh"

namespace {

using namespace rmb;

/** The run recipe plus rmbsim's own driver and output options. */
struct Options
{
    /** Every recipe flag; pt.seed is --seed. */
    exp::PointConfig pt;
    /** --fault-plan FILE: replayable JSON fault campaign. */
    std::string faultPlanPath;
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

/** The flag of recipe field @p name: local_rings -> local-rings. */
std::string
flagName(std::string name)
{
    std::replace(name.begin(), name.end(), '_', '-');
    return "--" + name;
}

/**
 * Prints the option summary and exits: to stdout with code 0 when
 * the user asked for it (--help), to stderr with code 2 on a
 * command-line mistake.
 */
[[noreturn]] void
usage(int code = 2)
{
    std::ostream &os = code == 0 ? std::cout : std::cerr;
    os << "usage: rmbsim [options]\n"
          "run recipe (each flag is also a sweep-spec field, '-' read"
          " as '_'; docs/SWEEPS.md):\n";
    const exp::PointConfig defaults;
    for (const exp::FieldInfo &f : exp::PointConfig::knownFields()) {
        if (f.sweepOnly)
            continue;
        // Help in column 30, as below; long value lists push it to
        // the next line.
        const std::string head = flagName(f.name) + ' ' + f.value;
        os << "  " << head
           << (head.size() < 27 ? std::string(27 - head.size(), ' ')
                                : "\n" + std::string(29, ' '))
           << f.help << " (default " << defaults.text(f.name)
           << ")\n";
    }
    os << "aliases:\n"
          "  --ports S,R                --send-ports S --receive-ports"
          " R\n"
          "  --fault-mttr MIN,MAX       --fault-mttr-min MIN"
          " --fault-mttr-max MAX\n"
          "  --no-compaction            --compaction false\n"
          "  --jobs N                   --shard-jobs N\n"
          "run and output:\n"
          "  --seed S                   (default 1)\n"
          "  --fault-plan FILE          (replayable JSON fault\n"
          "                              campaign, see docs/FAULTS"
          ".md)\n"
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
          "  other networks     topology=flat, engine=event\n";
    std::exit(code);
}

/** A bad flag value is a usage error that names the flag: exit 2. */
[[noreturn]] void
badValue(const std::string &flag, const std::string &problem)
{
    std::cerr << "rmbsim: " << flag << ' ' << problem << "\n";
    std::exit(2);
}

/** --seed and --timeline, which are not recipe fields. */
std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    std::uint64_t v = 0;
    if (!exp::parseUint(text, v))
        badValue(flag, "expects a non-negative integer, got '" + text +
                           "'");
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
    auto set = [&](const std::string &flag, const std::string &field,
                   std::string_view text) {
        const std::string problem = o.pt.setText(field, text);
        if (!problem.empty())
            badValue(flag, problem);
    };
    // The two-field aliases: "--ports S,R" and "--fault-mttr MIN,MAX".
    auto setPair = [&](const std::string &flag, const std::string &v,
                       const char *first, const char *second) {
        const auto comma = v.find(',');
        if (comma == std::string::npos)
            usage();
        set(flag, first, std::string_view(v).substr(0, comma));
        set(flag, second, std::string_view(v).substr(comma + 1));
    };
    const auto &fields = exp::PointConfig::knownFields();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto field = std::find_if(
            fields.begin(), fields.end(), [&](const exp::FieldInfo &f) {
                return !f.sweepOnly && arg == flagName(f.name);
            });
        if (field != fields.end()) {
            set(arg, field->name, need(i));
        } else if (arg == "--ports") {
            setPair(arg, need(i), "send_ports", "receive_ports");
        } else if (arg == "--fault-mttr") {
            setPair(arg, need(i), "fault_mttr_min", "fault_mttr_max");
        } else if (arg == "--no-compaction") {
            set(arg, "compaction", "false");
        } else if (arg == "--jobs") {
            set(arg, "shard_jobs", need(i));
        } else if (arg == "--seed") {
            o.pt.seed = parseUnsigned(arg, need(i));
        } else if (arg == "--fault-plan") {
            o.faultPlanPath = need(i);
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

/**
 * FNV-1a digest of every result-affecting input, hex-encoded: the
 * recipe's canonical echo, the seed, the fault plan and the replayed
 * trace.  The echo leaves out shard_jobs: shard parallelism is
 * result-neutral (reports are byte-compared across --jobs values),
 * so two runs that differ only in thread count share a digest.
 * Output paths (--json/--trace/--record) are excluded likewise.
 */
std::string
configDigest(const Options &o)
{
    obs::JsonWriter joined;
    joined.beginObject();
    o.pt.echo(joined);
    joined.field("seed", o.pt.seed);
    joined.field("fault_plan", o.faultPlanPath);
    joined.field("replay", o.replay);
    joined.endObject();
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
    json.field("seed", o.pt.seed);
    json.field("config_digest", configDigest(o));
#ifdef NDEBUG
    json.field("build_type", "release");
#else
    json.field("build_type", "debug");
#endif
    json.field("engine", o.pt.text("engine"));
    json.field("topology", o.pt.text("topology"));
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
    report.set("network", o.pt.network);
    if (o.pt.text("topology") != "flat")
        report.set("topology", o.pt.text("topology"));
    report.set("workload", o.pt.workload);
    report.set("nodes", std::uint64_t{network.numNodes()});
    report.set("payload", std::uint64_t{o.pt.payload});
    report.set("seed", o.pt.seed);
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
    std::string error;
    auto network =
        exp::makeNetwork(o.pt, simulator, o.pt.seed,
                         core::VerifyLevel::Cheap, error,
                         !o.faultPlanPath.empty());
    if (!network)
        fatal(error);

    if (!o.faultPlanPath.empty()) {
        auto *eng = dynamic_cast<core::Engine *>(network.get());
        if (eng == nullptr) {
            fatal("--fault-plan needs an RMB engine network "
                  "(--network rmb); '", o.pt.network,
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
            period = o.pt.duration / 100 ? o.pt.duration / 100 : 1;
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
            // Every node's gap has as many levels as gap 0.
            const double segs =
                static_cast<double>(rmb->numNodes()) *
                static_cast<double>(rmb->faultDomainLevels(0));
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
    sim::Random rng(o.pt.seed);

    if (!o.replay.empty()) {
        std::ifstream in(o.replay);
        if (!in)
            fatal("cannot open trace '", o.replay, "'");
        const auto trace = workload::readTrace(in, network->numNodes());
        startTimeline(trace.empty() ? 0 : trace.back().time);
        const auto r =
            workload::replayTrace(*network, trace, o.pt.timeout);
        std::cout << "replayed " << r.injected << " events: "
                  << r.delivered << " delivered, " << r.failed
                  << " failed, makespan " << r.makespan
                  << ", mean latency " << r.meanLatency << "\n";
        printStats(o, *network, simulator.now(), counts,
                   timeline.get());
        return 0;
    }

    const auto pairs =
        exp::batchPairs(o.pt, network->numNodes(), rng, error);
    if (!error.empty())
        fatal(error);
    if (!pairs.empty()) {
        startTimeline(0);
        const auto r = workload::runBatch(*network, pairs,
                                          o.pt.payload, o.pt.timeout);
        std::cout << (r.completed ? "batch completed"
                                  : "batch TIMED OUT")
                  << ": makespan " << r.makespan << "\n";
        if (!o.record.empty()) {
            workload::Trace trace;
            for (const auto &[src, dst] : pairs)
                trace.push_back(
                    workload::TraceEvent{0, src, dst, o.pt.payload});
            std::ofstream out(o.record);
            workload::writeTrace(out, trace);
        }
        printStats(o, *network, simulator.now(), counts,
                   timeline.get());
        return 0;
    }

    auto pattern =
        exp::stochasticPattern(o.pt, network->numNodes(), error);
    if (!pattern)
        fatal(error);
    if (!o.record.empty()) {
        const auto trace = workload::generateTrace(
            *pattern, o.pt.rate, o.pt.payload, o.pt.duration, rng);
        {
            std::ofstream out(o.record);
            if (!out)
                fatal("cannot write trace '", o.record, "'");
            workload::writeTrace(out, trace);
        }
        startTimeline(trace.empty() ? 0 : trace.back().time);
        const auto r =
            workload::replayTrace(*network, trace, o.pt.timeout);
        std::cout << "recorded " << trace.size() << " events to "
                  << o.record << "; replayed locally: "
                  << r.delivered << " delivered\n";
        printStats(o, *network, simulator.now(), counts,
                   timeline.get());
        return 0;
    }
    startTimeline(o.pt.duration);
    const auto r = workload::runOpenLoop(
        *network, *pattern, o.pt.rate, o.pt.payload, o.pt.duration,
        rng, o.pt.duration / 10, o.pt.timeout);
    std::cout << "open loop: offered " << r.offeredLoad
              << " msgs/node/tick, throughput " << r.throughput
              << ", mean latency " << r.meanLatency << "\n";
    printStats(o, *network, simulator.now(), counts,
               timeline.get());
    return 0;
}
