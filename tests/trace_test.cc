/**
 * @file
 * Tests for trace generation, (de)serialization and replay.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "rmb/network.hh"
#include "sim/simulator.hh"
#include "workload/trace.hh"

namespace rmb {
namespace workload {
namespace {

TEST(Trace, GenerateIsSortedAndInRange)
{
    UniformTraffic pattern(8);
    sim::Random rng(1);
    const Trace trace = generateTrace(pattern, 0.01, 16, 5000, rng);
    EXPECT_GT(trace.size(), 100u); // ~8 * 5000 * 0.01 = 400
    sim::Tick last = 0;
    for (const TraceEvent &e : trace) {
        EXPECT_GE(e.time, last);
        last = e.time;
        EXPECT_LT(e.time, 5000u);
        EXPECT_LT(e.src, 8u);
        EXPECT_LT(e.dst, 8u);
        EXPECT_NE(e.src, e.dst);
        EXPECT_EQ(e.payloadFlits, 16u);
    }
}

TEST(Trace, GenerateIsDeterministicPerSeed)
{
    UniformTraffic pattern(8);
    sim::Random a(7);
    sim::Random b(7);
    EXPECT_EQ(generateTrace(pattern, 0.01, 8, 2000, a),
              generateTrace(pattern, 0.01, 8, 2000, b));
}

TEST(Trace, WriteReadRoundTrip)
{
    UniformTraffic pattern(8);
    sim::Random rng(3);
    const Trace original =
        generateTrace(pattern, 0.02, 12, 1000, rng);
    std::stringstream buffer;
    writeTrace(buffer, original);
    const Trace parsed = readTrace(buffer);
    EXPECT_EQ(parsed, original);
}

TEST(Trace, ReadSkipsCommentsAndSorts)
{
    std::stringstream in(
        "# rmbtrace v1\n"
        "# a comment\n"
        "50 1 2 8\n"
        "\n"
        "10 3 4 16\n");
    const Trace trace = readTrace(in);
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[0].time, 10u);
    EXPECT_EQ(trace[1].time, 50u);
}

TEST(TraceDeathTest, MalformedLineIsFatal)
{
    std::stringstream in("10 3 4\n");
    EXPECT_EXIT(readTrace(in), ::testing::ExitedWithCode(1),
                "malformed");
}

TEST(TraceDeathTest, NodeTheNetworkLacksIsFatalAndNamesTheLine)
{
    // replayTrace() would trip an assertion (an abort) on these; the
    // reader refuses them with the line number instead.
    std::stringstream far("# rmbtrace v1\n0 1 2 4\n5 3 9 4\n");
    EXPECT_EXIT(readTrace(far, 8), ::testing::ExitedWithCode(1),
                "trace line 3: node 9 is out of range");
    std::stringstream self("0 2 2 4\n");
    EXPECT_EXIT(readTrace(self, 8), ::testing::ExitedWithCode(1),
                "trace line 1: node 2 sends to itself");
}

TEST(Trace, ReplayDeliversEverything)
{
    sim::Simulator s;
    core::RmbConfig cfg;
    cfg.numNodes = 8;
    cfg.numBuses = 3;
    cfg.verify = core::VerifyLevel::Full;
    core::RmbNetwork net(s, cfg);
    const Trace trace{
        {0, 0, 4, 8}, {10, 2, 6, 8}, {500, 5, 1, 8},
        {500, 6, 2, 8},
    };
    const auto r = replayTrace(net, trace);
    EXPECT_EQ(r.injected, 4u);
    EXPECT_EQ(r.delivered, 4u);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_GT(r.makespan, 500u);
}

TEST(Trace, ReplayHonoursTimestamps)
{
    sim::Simulator s;
    core::RmbConfig cfg;
    cfg.numNodes = 8;
    cfg.numBuses = 3;
    core::RmbNetwork net(s, cfg);
    const Trace trace{{1000, 0, 4, 8}};
    const auto r = replayTrace(net, trace);
    EXPECT_EQ(r.delivered, 1u);
    const net::Message &m = net.message(1);
    EXPECT_EQ(m.created, 1000u);
}

TEST(Trace, EmptyReplayIsNoop)
{
    sim::Simulator s;
    core::RmbConfig cfg;
    cfg.numNodes = 8;
    cfg.numBuses = 2;
    core::RmbNetwork net(s, cfg);
    const auto r = replayTrace(net, {});
    EXPECT_EQ(r.injected, 0u);
    EXPECT_EQ(r.makespan, 0u);
}

TEST(Trace, SameTraceDifferentNetworksComparable)
{
    UniformTraffic pattern(8);
    sim::Random rng(11);
    const Trace trace =
        generateTrace(pattern, 0.005, 16, 4000, rng);

    sim::Simulator s1;
    core::RmbConfig cfg;
    cfg.numNodes = 8;
    cfg.numBuses = 2;
    core::RmbNetwork rmb(s1, cfg);
    const auto r1 = replayTrace(rmb, trace);

    sim::Simulator s2;
    core::RmbConfig cfg2 = cfg;
    cfg2.numBuses = 4;
    core::RmbNetwork rmb4(s2, cfg2);
    const auto r2 = replayTrace(rmb4, trace);

    EXPECT_EQ(r1.injected, r2.injected);
    EXPECT_EQ(r1.delivered, r2.delivered);
}

} // namespace
} // namespace workload
} // namespace rmb
