/**
 * @file
 * Unit tests for the experiment engine (src/exp): spec parsing and
 * materialisation, the thread-pool runner, deterministic sweep
 * execution, report aggregation, and the baseline regression gate.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exp/eval.hh"
#include "exp/gate.hh"
#include "common/parallel.hh"
#include "exp/spec.hh"
#include "obs/json.hh"
#include "obs/json_value.hh"
#include "sim/random.hh"

namespace {

using namespace rmb;

std::string
joined(const std::vector<std::string> &errors)
{
    std::string all;
    for (const auto &e : errors)
        all += e + "\n";
    return all;
}

// ---------------------------------------------------------------
// JSON parsing
// ---------------------------------------------------------------

TEST(JsonValue, ParsesAndSerialisesCanonically)
{
    obs::JsonValue v;
    std::string error;
    ASSERT_TRUE(obs::jsonParse(
        R"({ "a" : [ 1, 2.5, true, null ], "b" : { "c" : "x\ny" } })",
        v, error))
        << error;
    ASSERT_TRUE(v.isObject());
    const auto *a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    EXPECT_EQ(a->array().size(), 4u);
    EXPECT_EQ(a->array()[0].numberToken(), "1");
    EXPECT_DOUBLE_EQ(a->array()[1].number(), 2.5);
    // Canonical form: no whitespace, member order preserved.
    EXPECT_EQ(v.serialize(),
              R"({"a":[1,2.5,true,null],"b":{"c":"x\ny"}})");
}

TEST(JsonValue, Uint64RoundTripsExactly)
{
    obs::JsonValue v;
    std::string error;
    ASSERT_TRUE(
        obs::jsonParse("{\"seed\": 18446744073709551615}", v, error));
    std::uint64_t seed = 0;
    ASSERT_TRUE(v.find("seed")->asUint64(seed));
    EXPECT_EQ(seed, 18446744073709551615ull);
    EXPECT_EQ(v.serialize(), "{\"seed\":18446744073709551615}");
}

TEST(JsonValue, SyntaxErrorsNameTheOffset)
{
    obs::JsonValue v;
    std::string error;
    EXPECT_FALSE(obs::jsonParse("{\"a\": [1, }", v, error));
    EXPECT_NE(error.find("at byte"), std::string::npos) << error;
    EXPECT_FALSE(obs::jsonParse("", v, error));
    EXPECT_FALSE(obs::jsonParse("{} trailing", v, error));
    EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

// ---------------------------------------------------------------
// Random::split
// ---------------------------------------------------------------

TEST(RandomSplit, PureAndOrderIndependent)
{
    const sim::Random root(1234);
    // split() is const: calling it many times, in any order, yields
    // the same child for the same id.
    const std::uint64_t a_first = root.split(7).next();
    for (std::uint64_t id : {3ull, 0ull, 7ull, 7ull, 100ull})
        (void)root.split(id);
    EXPECT_EQ(root.split(7).next(), a_first);

    // Distinct ids give distinct streams (no collisions in a small
    // range, and not the trivial seed+i relationship).
    std::set<std::uint64_t> firsts;
    for (std::uint64_t id = 0; id < 256; ++id)
        firsts.insert(root.split(id).next());
    EXPECT_EQ(firsts.size(), 256u);
}

TEST(RandomSplit, NestedSplitsAreIndependent)
{
    const sim::Random root(99);
    EXPECT_NE(root.split(0).split(1).next(),
              root.split(1).split(0).next());
    EXPECT_EQ(root.split(4).split(2).next(),
              root.split(4).split(2).next());
}

// ---------------------------------------------------------------
// SweepSpec
// ---------------------------------------------------------------

const char *kSmallSpec = R"({
  "name": "small",
  "seed": 42,
  "base": { "nodes": 8, "buses": 2, "payload": 4,
            "workload": "randperm", "timeout": 2000000 },
  "axes": [
    { "field": "nodes", "values": [8, 16] },
    { "field": "buses", "values": [2, 4] }
  ]
})";

TEST(SweepSpec, CartesianMaterialisation)
{
    exp::SweepSpec spec;
    std::vector<std::string> errors;
    ASSERT_TRUE(exp::SweepSpec::fromJson(kSmallSpec, spec, errors))
        << joined(errors);
    EXPECT_EQ(spec.name(), "small");
    EXPECT_EQ(spec.masterSeed(), 42u);
    ASSERT_EQ(spec.pointCount(), 4u);

    const auto points = spec.points();
    ASSERT_EQ(points.size(), 4u);
    // Last axis varies fastest.
    EXPECT_EQ(points[0].net.numNodes, 8u);
    EXPECT_EQ(points[0].net.numBuses, 2u);
    EXPECT_EQ(points[1].net.numNodes, 8u);
    EXPECT_EQ(points[1].net.numBuses, 4u);
    EXPECT_EQ(points[2].net.numNodes, 16u);
    EXPECT_EQ(points[2].net.numBuses, 2u);
    EXPECT_EQ(points[3].net.numNodes, 16u);
    EXPECT_EQ(points[3].net.numBuses, 4u);
    // Base fields carry through; labels describe the axis choices.
    EXPECT_EQ(points[3].payload, 4u);
    EXPECT_NE(points[3].label.find("nodes=16"), std::string::npos);
    EXPECT_NE(points[3].label.find("buses=4"), std::string::npos);

    // Seeds are split per index: all distinct, and stable across
    // re-materialisation.
    std::set<std::uint64_t> seeds;
    for (const auto &p : points)
        seeds.insert(p.seed);
    EXPECT_EQ(seeds.size(), points.size());
    const auto again = spec.points();
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(points[i].seed, again[i].seed);
}

TEST(SweepSpec, ZipMode)
{
    exp::SweepSpec spec;
    std::vector<std::string> errors;
    ASSERT_TRUE(exp::SweepSpec::fromJson(R"({
      "mode": "zip",
      "axes": [
        { "field": "nodes", "values": [8, 16, 32] },
        { "field": "buses", "values": [2, 4, 8] }
      ]
    })",
                                         spec, errors))
        << joined(errors);
    ASSERT_EQ(spec.pointCount(), 3u);
    const auto points = spec.points();
    EXPECT_EQ(points[1].net.numNodes, 16u);
    EXPECT_EQ(points[1].net.numBuses, 4u);
}

TEST(SweepSpec, ZipLengthMismatchIsActionable)
{
    exp::SweepSpec spec;
    std::vector<std::string> errors;
    EXPECT_FALSE(exp::SweepSpec::fromJson(R"({
      "mode": "zip",
      "axes": [
        { "field": "nodes", "values": [8, 16] },
        { "field": "buses", "values": [2] }
      ]
    })",
                                          spec, errors));
    EXPECT_NE(joined(errors).find("zip"), std::string::npos)
        << joined(errors);
}

TEST(SweepSpec, UnknownFieldListsKnownOnes)
{
    exp::SweepSpec spec;
    std::vector<std::string> errors;
    EXPECT_FALSE(exp::SweepSpec::fromJson(
        R"({ "base": { "bogus_field": 3 } })", spec, errors));
    const std::string all = joined(errors);
    EXPECT_NE(all.find("bogus_field"), std::string::npos) << all;
}

TEST(SweepSpec, WrongValueTypeIsActionable)
{
    exp::SweepSpec spec;
    std::vector<std::string> errors;
    EXPECT_FALSE(exp::SweepSpec::fromJson(
        R"({ "axes": [ { "field": "nodes",
                         "values": ["not-a-number"] } ] })",
        spec, errors));
    EXPECT_NE(joined(errors).find("nodes"), std::string::npos)
        << joined(errors);
}

TEST(SweepSpec, DuplicateAxisFieldRejected)
{
    exp::SweepSpec spec;
    std::vector<std::string> errors;
    EXPECT_FALSE(exp::SweepSpec::fromJson(R"({
      "axes": [
        { "field": "nodes", "values": [8] },
        { "field": "nodes", "values": [16] }
      ]
    })",
                                          spec, errors));
    EXPECT_NE(joined(errors).find("nodes"), std::string::npos);
}

TEST(SweepSpec, SyntaxErrorSurfacesParserMessage)
{
    exp::SweepSpec spec;
    std::vector<std::string> errors;
    EXPECT_FALSE(exp::SweepSpec::fromJson("{ not json", spec, errors));
    ASSERT_FALSE(errors.empty());
    EXPECT_NE(errors[0].find("at byte"), std::string::npos)
        << errors[0];
}

TEST(SweepSpec, FaultProbabilitiesAreRangeChecked)
{
    // Out-of-range (and NaN, were JSON able to spell it) fault
    // probabilities must be rejected with the expected range, never
    // silently clamped or admitted.
    for (const char *bad : {"-0.5", "1.5", "\"high\""}) {
        exp::SweepSpec spec;
        std::vector<std::string> errors;
        EXPECT_FALSE(exp::SweepSpec::fromJson(
            std::string(R"({ "base": { "fault_permanent_prob": )") +
                bad + " } }",
            spec, errors))
            << bad;
        const std::string all = joined(errors);
        EXPECT_NE(all.find("a probability in [0, 1]"),
                  std::string::npos)
            << all;
    }
    // Same gate on the other two knobs.
    for (const char *field :
         {"fault_node_prob", "fault_bridge_prob"}) {
        exp::SweepSpec spec;
        std::vector<std::string> errors;
        EXPECT_FALSE(exp::SweepSpec::fromJson(
            std::string(R"({ "base": { ")") + field +
                R"(": -1 } })",
            spec, errors))
            << field;
        EXPECT_NE(joined(errors).find(field), std::string::npos)
            << joined(errors);
    }
}

TEST(SweepSpec, NegativeFaultTimingRejected)
{
    for (const char *field :
         {"fault_mtbf", "fault_mttr_min", "fault_mttr_max"}) {
        exp::SweepSpec spec;
        std::vector<std::string> errors;
        EXPECT_FALSE(exp::SweepSpec::fromJson(
            std::string(R"({ "base": { ")") + field +
                R"(": -200 } })",
            spec, errors))
            << field;
        EXPECT_NE(joined(errors).find("non-negative"),
                  std::string::npos)
            << joined(errors);
    }
}

TEST(SweepSpec, FaultProbabilitiesCarryIntoPoints)
{
    exp::SweepSpec spec;
    std::vector<std::string> errors;
    ASSERT_TRUE(exp::SweepSpec::fromJson(R"({
      "base": { "fault_mtbf": 400,
                "fault_permanent_prob": 0.25,
                "fault_node_prob": 0.125 },
      "axes": [ { "field": "fault_bridge_prob",
                  "values": [0, 0.5] } ]
    })",
                                         spec, errors))
        << joined(errors);
    const auto points = spec.points();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_DOUBLE_EQ(points[0].net.faultPermanentProb, 0.25);
    EXPECT_DOUBLE_EQ(points[0].net.faultNodeProb, 0.125);
    EXPECT_DOUBLE_EQ(points[0].net.faultBridgeProb, 0.0);
    EXPECT_DOUBLE_EQ(points[1].net.faultBridgeProb, 0.5);

    // Zero-valued probability knobs stay out of the canonical form,
    // so specs predating them keep their baseline digests.
    exp::SweepSpec plain;
    ASSERT_TRUE(exp::SweepSpec::fromJson(R"({ "base": {} })", plain,
                                         errors))
        << joined(errors);
    EXPECT_EQ(plain.canonicalJson().find("fault_permanent_prob"),
              std::string::npos);
}

// ---------------------------------------------------------------
// The field table
// ---------------------------------------------------------------

/**
 * One valid, non-default JSON value per table row.  A row without a
 * sample fails FieldTable.EverySampleIsARow... so new rows get
 * covered by the tests below.
 */
const std::map<std::string, std::string> &
samples()
{
    static const std::map<std::string, std::string> values = {
        {"network", "\"torus\""},
        {"nodes", "8"},
        {"buses", "3"},
        {"width", "5"},
        {"height", "6"},
        {"dims", "\"2x3\""},
        {"workload", "\"local:3\""},
        {"rate", "0.25"},
        {"payload", "7"},
        {"duration", "1234"},
        {"timeout", "99"},
        {"compaction", "false"},
        {"engine", "\"kernel\""},
        {"topology", "\"hier\""},
        {"local_rings", "2"},
        {"global_buses", "5"},
        {"bridge_latency", "3"},
        {"bridge_buffer", "9"},
        {"shard_jobs", "4"},
        {"blocking", "\"wait:40\""},
        {"header", "\"straight\""},
        {"send_ports", "2"},
        {"receive_ports", "3"},
        {"detailed_flits", "true"},
        {"fault_mtbf", "700"},
        {"fault_mttr_min", "11"},
        {"fault_mttr_max", "22"},
        {"fault_permanent_prob", "0.5"},
        {"fault_node_prob", "0.125"},
        {"fault_bridge_prob", "0.75"},
        {"watchdog", "321"},
        {"max_retries", "6"},
        {"timeline_period", "50"},
    };
    return values;
}

obs::JsonValue
parsed(const std::string &text)
{
    obs::JsonValue v;
    std::string error;
    EXPECT_TRUE(obs::jsonParse(text, v, error)) << text << ": " << error;
    return v;
}

/** The flag-text spelling of a sample: strings lose their quotes. */
std::string
unquoted(const std::string &json)
{
    return json.front() == '"' ? json.substr(1, json.size() - 2) : json;
}

std::string
echoed(const exp::PointConfig &pt)
{
    obs::JsonWriter json;
    json.beginObject();
    pt.echo(json);
    json.endObject();
    return json.str();
}

TEST(FieldTable, EverySampleIsARowAndEveryRowHasOne)
{
    std::set<std::string> rows;
    for (const exp::FieldInfo &f : exp::PointConfig::knownFields()) {
        EXPECT_TRUE(rows.insert(f.name).second) << f.name;
        EXPECT_EQ(samples().count(f.name), 1u) << f.name;
    }
    EXPECT_EQ(rows.size(), samples().size());
}

TEST(FieldTable, EchoParseEchoIsAFixedPoint)
{
    exp::PointConfig varied;
    for (const auto &[field, value] : samples()) {
        EXPECT_EQ(varied.set(field, parsed(value)), "") << field;
        EXPECT_EQ(varied.text(field), unquoted(value)) << field;
    }
    for (const exp::PointConfig &pt : {exp::PointConfig(), varied}) {
        const std::string first = echoed(pt);
        const obs::JsonValue doc = parsed(first);
        exp::PointConfig again;
        for (const auto &[field, value] : doc.members())
            EXPECT_EQ(again.set(field, value), "") << field;
        EXPECT_EQ(echoed(again), first);
    }
    // Every non-default field is echoed, except shard_jobs, which is
    // result-neutral by the determinism contract.
    const std::string all = echoed(varied);
    for (const exp::FieldInfo &f : exp::PointConfig::knownFields()) {
        EXPECT_EQ(all.find("\"" + f.name + "\":") != std::string::npos,
                  f.name != "shard_jobs")
            << f.name;
    }
}

TEST(FieldTable, TextAndJsonSpellingsSetTheSameConfig)
{
    for (const auto &[field, value] : samples()) {
        exp::PointConfig from_json;
        exp::PointConfig from_text;
        EXPECT_EQ(from_json.set(field, parsed(value)), "") << field;
        EXPECT_EQ(from_text.setText(field, unquoted(value)), "")
            << field;
        for (const exp::FieldInfo &f : exp::PointConfig::knownFields())
            EXPECT_EQ(from_json.text(f.name), from_text.text(f.name))
                << "setting " << field << " moved " << f.name;
    }
}

TEST(FieldTable, TextIsCheckedLikeJson)
{
    exp::PointConfig pt;
    for (const auto &[field, text] :
         std::vector<std::pair<std::string, std::string>>{
             {"nodes", "abc"},
             {"nodes", "-1"},
             {"nodes", "4294967296"},
             {"fault_mtbf", " 5"},
             {"rate", "0"},
             {"rate", "nan"},
             {"fault_node_prob", "1.5"},
             {"compaction", "yes"},
             {"engine", "foo"},
             {"header", "foo"},
             {"blocking", "wait:x"},
             {"dims", "4xx4"},
             {"workload", "hrel:0"}}) {
        const std::string error = pt.setText(field, text);
        EXPECT_NE(error.find("expects"), std::string::npos)
            << field << "=" << text << ": " << error;
        EXPECT_NE(error.find(text), std::string::npos) << error;
    }
    EXPECT_NE(pt.setText("bogus", "1").find("known fields"),
              std::string::npos);
    EXPECT_EQ(exp::PointConfig().text("nodes"), pt.text("nodes"));
}

TEST(FieldTable, RmbsimHelpNamesEveryFlag)
{
    std::FILE *pipe = ::popen(RMBSIM_BIN " --help", "r");
    ASSERT_NE(pipe, nullptr);
    std::string help;
    char buf[4096];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;)
        help.append(buf, n);
    EXPECT_EQ(::pclose(pipe), 0);
    for (const exp::FieldInfo &f : exp::PointConfig::knownFields()) {
        std::string flag = "--" + f.name + " ";
        std::replace(flag.begin(), flag.end(), '_', '-');
        EXPECT_EQ(help.find(flag) != std::string::npos, !f.sweepOnly)
            << flag;
    }
}

TEST(SweepSpec, WorkloadSuffixesAreCheckedAtLoad)
{
    for (const char *bad :
         {"rot:abc", "local:0", "hotspot:7", "hrel:", "local:-2"}) {
        exp::SweepSpec spec;
        std::vector<std::string> errors;
        EXPECT_FALSE(exp::SweepSpec::fromJson(
            std::string(R"({ "axes": [ { "field": "workload",
                             "values": ["uniform", ")") +
                bad + "\"] } ] }",
            spec, errors))
            << bad;
        const std::string all = joined(errors);
        EXPECT_NE(all.find("workload"), std::string::npos) << all;
        EXPECT_NE(all.find(std::string(bad).substr(0, 4)),
                  std::string::npos)
            << all;
    }
}

// ---------------------------------------------------------------
// Runner
// ---------------------------------------------------------------

TEST(Runner, CoversEveryIndexExactlyOnce)
{
    for (unsigned jobs : {1u, 2u, 5u}) {
        const common::Runner runner(jobs);
        std::vector<std::atomic<int>> hits(100);
        runner.forEach(hits.size(),
                       [&](std::size_t i) { hits[i]++; });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(Runner, PropagatesTheFirstException)
{
    const common::Runner runner(2);
    EXPECT_THROW(runner.forEach(8,
                                [](std::size_t i) {
                                    if (i == 3)
                                        throw std::runtime_error(
                                            "boom");
                                }),
                 std::runtime_error);
}

/**
 * The sharded hierarchical executor's pattern: thousands of forEach
 * calls back to back on one Runner, with index counts below, at and
 * above the job count (and 0 and 1, which run inline).  Every index
 * must run exactly once per call - with and without home workers -
 * and no call may leak into the next.
 */
TEST(Runner, BackToBackCallsCoverEveryIndexOnce)
{
    const common::Runner runner(4);
    const std::size_t counts[] = {0, 1, 2, 3, 4, 5, 17, 64};
    std::vector<std::atomic<int>> hits(64);
    for (int call = 0; call < 6000; ++call) {
        const std::size_t count = counts[call % 8];
        for (auto &h : hits)
            h.store(0);
        const auto fn = [&](std::size_t i) { hits[i]++; };
        if (call % 2 == 0) {
            runner.forEach(count, fn);
        } else {
            runner.forEach(count, fn, [](std::size_t i) {
                return static_cast<unsigned>(i * 7);
            });
        }
        for (std::size_t i = 0; i < hits.size(); ++i) {
            ASSERT_EQ(hits[i].load(), i < count ? 1 : 0)
                << "call " << call << ", count " << count
                << ", index " << i;
        }
    }
}

/**
 * The calling thread is one of the workers.  An exception it throws
 * must not cut the call short: the other indices still run, and the
 * exception surfaces only once every worker has left the job.
 */
TEST(Runner, CallerExceptionIsRethrownAfterThePoolDrains)
{
    const common::Runner runner(4);
    const std::thread::id caller = std::this_thread::get_id();
    for (int round = 0; round < 20; ++round) {
        std::vector<std::atomic<int>> hits(32);
        std::atomic<int> inside{0};
        std::atomic<int> thrown{0};
        bool caught = false;
        try {
            runner.forEach(hits.size(), [&](std::size_t i) {
                inside++;
                hits[i]++;
                if (std::this_thread::get_id() == caller) {
                    thrown++;
                    inside--;
                    throw std::runtime_error("caller");
                }
                // Workers are slow, so the caller claims some indices
                // and finishes its share well before they do.
                std::this_thread::sleep_for(
                    std::chrono::microseconds(300));
                inside--;
            });
        } catch (const std::runtime_error &e) {
            caught = true;
            EXPECT_STREQ(e.what(), "caller");
            EXPECT_EQ(inside.load(), 0) << "rethrown before drain";
        }
        ASSERT_TRUE(caught) << "the caller ran no index";
        EXPECT_GE(thrown.load(), 1);
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

// ---------------------------------------------------------------
// Sweep execution + aggregation
// ---------------------------------------------------------------

TEST(Sweep, ReportIsByteIdenticalAcrossJobCounts)
{
    exp::SweepSpec spec;
    std::vector<std::string> errors;
    ASSERT_TRUE(exp::SweepSpec::fromJson(kSmallSpec, spec, errors))
        << joined(errors);

    const auto one = exp::runSweep(spec, 1);
    const auto four = exp::runSweep(spec, 4);
    EXPECT_EQ(one.failures, 0u);
    const std::string report_one =
        exp::aggregate(spec, one).toJson();
    const std::string report_four =
        exp::aggregate(spec, four).toJson();
    EXPECT_EQ(report_one, report_four);

    // And the artifact is valid JSON.
    EXPECT_TRUE(obs::jsonValid(report_one));
}

TEST(Sweep, ProgressObserverSeesEveryPoint)
{
    exp::SweepSpec spec;
    std::vector<std::string> errors;
    ASSERT_TRUE(exp::SweepSpec::fromJson(kSmallSpec, spec, errors));
    std::vector<std::size_t> seen;
    std::size_t last_completed = 0;
    exp::runSweep(spec, 2, [&](const exp::Progress &p) {
        // The observer runs serially: completed is monotone.
        EXPECT_EQ(p.completed, last_completed + 1);
        last_completed = p.completed;
        EXPECT_EQ(p.total, 4u);
        seen.push_back(p.index);
    });
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Sweep, BadPointIsCapturedNotFatal)
{
    exp::SweepSpec spec;
    std::vector<std::string> errors;
    ASSERT_TRUE(exp::SweepSpec::fromJson(R"({
      "base": { "nodes": 8, "payload": 4, "workload": "randperm" },
      "axes": [ { "field": "buses", "values": [2, 0] } ]
    })",
                                         spec, errors))
        << joined(errors);
    const auto outcome = exp::runSweep(spec, 2);
    ASSERT_EQ(outcome.results.size(), 2u);
    EXPECT_TRUE(outcome.results[0].ok);
    EXPECT_FALSE(outcome.results[1].ok);
    EXPECT_EQ(outcome.failures, 1u);
    EXPECT_NE(outcome.results[1].error.find("bus"),
              std::string::npos)
        << outcome.results[1].error;
}

TEST(Sweep, WorkloadThatDoesNotFitIsCapturedNotFatal)
{
    // local:9 on 8 nodes and bitrev on 12 would abort in the traffic
    // generators, rot:8 on 8 nodes is no traffic at all, and
    // hrel:4000000000 would allocate 32e9 pairs; the factory turns
    // them into per-point errors and every other point still runs.
    exp::SweepSpec spec;
    std::vector<std::string> errors;
    ASSERT_TRUE(exp::SweepSpec::fromJson(R"({
      "base": { "nodes": 8, "payload": 4, "rate": 0.01,
                "duration": 2000 },
      "mode": "zip",
      "axes": [ { "field": "workload",
                  "values": ["uniform", "local:9", "bitrev",
                             "local:3", "bitrev", "rot:8",
                             "hrel:4000000000"] },
                { "field": "nodes",
                  "values": [8, 8, 12, 8, 8, 8, 8] } ]
    })",
                                         spec, errors))
        << joined(errors);
    const auto outcome = exp::runSweep(spec, 2);
    ASSERT_EQ(outcome.results.size(), 7u);
    EXPECT_EQ(outcome.failures, 4u);
    EXPECT_TRUE(outcome.results[0].ok) << outcome.results[0].error;
    EXPECT_NE(outcome.results[1].error.find("distance below"),
              std::string::npos)
        << outcome.results[1].error;
    EXPECT_NE(outcome.results[2].error.find("2^n"), std::string::npos)
        << outcome.results[2].error;
    EXPECT_TRUE(outcome.results[3].ok) << outcome.results[3].error;
    EXPECT_TRUE(outcome.results[4].ok) << outcome.results[4].error;
    EXPECT_NE(outcome.results[5].error.find("to its source"),
              std::string::npos)
        << outcome.results[5].error;
    EXPECT_NE(outcome.results[6].error.find(
                  "32000000000 messages; a batch holds at most " +
                  std::to_string(exp::kMaxBatchMessages)),
              std::string::npos)
        << outcome.results[6].error;
}

TEST(Sweep, OptionsANetworkWouldIgnoreAreRefused)
{
    // Each of these once ran silently without the option; the point
    // now fails with the message rmbsim gives for the same flags.
    struct Case
    {
        const char *base;
        const char *message;
    };
    for (const Case &c : std::vector<Case>{
             {R"("network": "mesh", "engine": "kernel")",
              "engine=kernel is only supported with network=rmb"},
             {R"("network": "ring", "topology": "hier")",
              "topology=hier is only supported with network=rmb"},
             {R"("global_buses": 2)", "globalBuses=2 has no effect"},
             {R"("fault_mtbf": 500, "fault_bridge_prob": 0.5)",
              "faultBridgeProb=0.5 needs bridges"}}) {
        exp::SweepSpec spec;
        std::vector<std::string> errors;
        ASSERT_TRUE(exp::SweepSpec::fromJson(
            std::string(R"({ "base": { "nodes": 8, "payload": 4, )") +
                c.base + " } }",
            spec, errors))
            << joined(errors);
        const auto result = exp::runPoint(spec.points().front());
        EXPECT_FALSE(result.ok) << c.base;
        EXPECT_NE(result.error.find(c.message), std::string::npos)
            << result.error;
    }
}

TEST(Sweep, GridNetworkRunsWithDims)
{
    exp::SweepSpec spec;
    std::vector<std::string> errors;
    ASSERT_TRUE(exp::SweepSpec::fromJson(
        R"({ "base": { "network": "grid", "dims": "2x4",
                       "payload": 4 } })",
        spec, errors))
        << joined(errors);
    const auto result = exp::runPoint(spec.points().front());
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_NE(spec.canonicalJson().find(R"("dims":"2x4")"),
              std::string::npos);
}

TEST(Sweep, RunPointIsDeterministic)
{
    exp::SweepSpec spec;
    std::vector<std::string> errors;
    ASSERT_TRUE(exp::SweepSpec::fromJson(kSmallSpec, spec, errors));
    const auto points = spec.points();
    for (const auto &p : points) {
        const auto r1 = exp::runPoint(p);
        const auto r2 = exp::runPoint(p);
        ASSERT_TRUE(r1.ok) << r1.error;
        EXPECT_EQ(r1.metrics, r2.metrics);
    }
}

// ---------------------------------------------------------------
// Baseline gate
// ---------------------------------------------------------------

TEST(Gate, IdenticalReportsPass)
{
    const std::string doc =
        R"({"a": 1.5, "b": {"c": 2, "s": "hi"}, "arr": [1, 2]})";
    const auto outcome = exp::compareReportTexts(doc, doc);
    EXPECT_TRUE(outcome.pass) << joined(outcome.problems);
    EXPECT_EQ(outcome.compared, 5u);
}

TEST(Gate, NumericDriftFailsWithPath)
{
    const auto outcome = exp::compareReportTexts(
        R"({"b": {"c": 2}})", R"({"b": {"c": 3}})");
    EXPECT_FALSE(outcome.pass);
    ASSERT_EQ(outcome.problems.size(), 1u);
    EXPECT_NE(outcome.problems[0].find("b.c"), std::string::npos)
        << outcome.problems[0];
}

TEST(Gate, ToleranceFromBaselineAllowsDrift)
{
    // |2 - 3| <= rtol * |baseline| with rtol = 0.6 -> within budget.
    const auto outcome = exp::compareReportTexts(
        R"({"b": {"c": 2}})",
        R"({"b": {"c": 3}, "tolerances": {"c": 0.6}})");
    EXPECT_TRUE(outcome.pass) << joined(outcome.problems);
}

TEST(Gate, ExactPathBeatsBareLeafName)
{
    // The bare name would allow the drift; the exact path (more
    // specific) forbids it.
    const auto outcome = exp::compareReportTexts(
        R"({"b": {"c": 2}})",
        R"({"b": {"c": 3},
            "tolerances": {"c": 0.6, "b.c": 0.0}})");
    EXPECT_FALSE(outcome.pass);
}

TEST(Gate, StarAndCliDefaultsApply)
{
    EXPECT_TRUE(exp::compareReportTexts(
                    R"({"x": 10})",
                    R"({"x": 11, "tolerances": {"*": 0.2}})")
                    .pass);
    exp::GateOptions opt;
    opt.rtol = 0.2;
    EXPECT_TRUE(
        exp::compareReportTexts(R"({"x": 10})", R"({"x": 11})", opt)
            .pass);
    EXPECT_FALSE(
        exp::compareReportTexts(R"({"x": 10})", R"({"x": 11})")
            .pass);
}

TEST(Gate, MissingLeafAndTypeMismatchFail)
{
    EXPECT_FALSE(
        exp::compareReportTexts(R"({})", R"({"gone": 1})").pass);
    EXPECT_FALSE(exp::compareReportTexts(R"({"x": "1"})",
                                         R"({"x": 1})")
                     .pass);
    // Fresh-only leaves are fine: adding metrics never breaks a
    // stored baseline.
    EXPECT_TRUE(exp::compareReportTexts(R"({"x": 1, "new": 2})",
                                        R"({"x": 1})")
                    .pass);
}

TEST(Gate, BrokenDocumentsAreReportedNotThrown)
{
    const auto outcome =
        exp::compareReportTexts("{ nope", R"({"x": 1})");
    EXPECT_FALSE(outcome.pass);
    ASSERT_FALSE(outcome.problems.empty());
    EXPECT_NE(outcome.problems[0].find("fresh"), std::string::npos)
        << outcome.problems[0];
}

} // namespace
