/**
 * @file
 * Unit tests for the Simulator driver.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hh"

namespace rmb {
namespace sim {
namespace {

TEST(Simulator, TimeStartsAtZero)
{
    Simulator s;
    EXPECT_EQ(s.now(), 0u);
    EXPECT_TRUE(s.idle());
}

TEST(Simulator, ScheduleIsRelative)
{
    Simulator s;
    Tick seen = 0;
    s.schedule(10, [&] { seen = s.now(); });
    s.run();
    EXPECT_EQ(seen, 10u);
    EXPECT_EQ(s.now(), 10u);
}

TEST(Simulator, NestedSchedulingAccumulates)
{
    Simulator s;
    Tick seen = 0;
    s.schedule(10, [&] {
        s.schedule(5, [&] { seen = s.now(); });
    });
    s.run();
    EXPECT_EQ(seen, 15u);
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive)
{
    Simulator s;
    int fired = 0;
    s.schedule(10, [&] { ++fired; });
    s.schedule(20, [&] { ++fired; });
    s.schedule(21, [&] { ++fired; });
    EXPECT_EQ(s.runUntil(20), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(s.now(), 20u);
    EXPECT_FALSE(s.idle());
}

TEST(Simulator, RunUntilAdvancesTimeWhenQueueDrains)
{
    Simulator s;
    s.schedule(3, [] {});
    s.runUntil(100);
    EXPECT_EQ(s.now(), 100u);
    EXPECT_TRUE(s.idle());
}

TEST(Simulator, RunForIsRelative)
{
    Simulator s;
    s.runFor(50);
    EXPECT_EQ(s.now(), 50u);
    s.runFor(50);
    EXPECT_EQ(s.now(), 100u);
}

TEST(Simulator, RunWithEventBudget)
{
    Simulator s;
    int fired = 0;
    for (int i = 0; i < 10; ++i)
        s.schedule(static_cast<Tick>(i), [&] { ++fired; });
    EXPECT_EQ(s.run(4), 4u);
    EXPECT_EQ(fired, 4);
    EXPECT_EQ(s.run(), 6u);
    EXPECT_EQ(fired, 10);
}

TEST(Simulator, ScheduleAtAbsolute)
{
    Simulator s;
    s.schedule(10, [] {});
    s.run();
    Tick seen = 0;
    s.scheduleAt(25, [&] { seen = s.now(); });
    s.run();
    EXPECT_EQ(seen, 25u);
}

TEST(Simulator, CancelPreventsExecution)
{
    Simulator s;
    bool fired = false;
    EventId id = s.schedule(5, [&] { fired = true; });
    EXPECT_TRUE(s.cancel(id));
    s.run();
    EXPECT_FALSE(fired);
}

TEST(Simulator, NumExecutedAccumulatesAcrossRuns)
{
    Simulator s;
    s.schedule(1, [] {});
    s.run();
    s.schedule(1, [] {});
    s.run();
    EXPECT_EQ(s.numExecuted(), 2u);
}

TEST(SimulatorDeathTest, ScheduleAtPastPanics)
{
    Simulator s;
    s.schedule(10, [] {});
    s.run();
    EXPECT_DEATH(s.scheduleAt(5, [] {}), "past");
}

TEST(Simulator, ZeroDelaySelfEventRunsThisInstant)
{
    Simulator s;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 3)
            s.schedule(0, chain);
    };
    s.schedule(0, chain);
    s.run();
    EXPECT_EQ(depth, 3);
    EXPECT_EQ(s.now(), 0u);
}

TEST(Simulator, RunUntilAndAdvanceIfIdleAreExactAcrossFarEvents)
{
    // Tick 500 is scheduled far ahead of the queue's cursor and moves
    // into its near ring only when the clock gets there.
    Simulator s;
    std::vector<int> order;
    bool advanced_past_horizon = true;
    s.schedule(10, [&] {
        order.push_back(1);
        advanced_past_horizon = s.advanceIfIdle(400);
    });
    s.schedule(500, [&] { order.push_back(3); });
    EXPECT_EQ(s.runUntil(300), 1u);
    EXPECT_FALSE(advanced_past_horizon);
    EXPECT_EQ(s.now(), 300u);
    EXPECT_FALSE(s.advanceIfIdle(500)); // the far event is due
    EXPECT_TRUE(s.advanceIfIdle(499));
    EXPECT_EQ(s.now(), 499u);
    // Same tick as the far event, scheduled later: fires after it.
    s.schedule(1, [&] { order.push_back(4); });
    s.scheduleAt(499, [&] { order.push_back(2); });
    EXPECT_EQ(s.runUntil(499), 1u);
    EXPECT_EQ(s.runUntil(500), 2u);
    EXPECT_EQ(s.now(), 500u);
    EXPECT_TRUE(s.idle());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Simulator, RunStopsAtEventBudgetAcrossFarEvents)
{
    Simulator s;
    int fired = 0;
    for (Tick t : {Tick{5}, Tick{5'000}, Tick{90'000}})
        s.schedule(t, [&] { ++fired; });
    EXPECT_EQ(s.run(2), 2u);
    EXPECT_EQ(s.now(), 5'000u);
    EXPECT_EQ(s.eventQueue().nextTick(), 90'000u);
    EXPECT_EQ(s.run(), 1u);
    EXPECT_EQ(fired, 3);
}

} // namespace
} // namespace sim
} // namespace rmb
