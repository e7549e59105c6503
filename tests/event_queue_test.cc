/**
 * @file
 * Unit tests for the discrete-event queue.
 */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"

namespace rmb {
namespace sim {
namespace {

TEST(EventQueue, StartsEmpty)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.nextTick(), kMaxTick);
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    while (!q.empty())
        q.runOne();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        q.schedule(5, [&, i] { order.push_back(i); });
    while (!q.empty())
        q.runOne();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueue, RunOneReturnsFiringTick)
{
    EventQueue q;
    q.schedule(42, [] {});
    EXPECT_EQ(q.nextTick(), 42u);
    EXPECT_EQ(q.runOne(), 42u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelPendingEvent)
{
    EventQueue q;
    bool fired = false;
    EventId id = q.schedule(10, [&] { fired = true; });
    EXPECT_TRUE(q.cancel(id));
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceFails)
{
    EventQueue q;
    EventId id = q.schedule(10, [] {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterFireFails)
{
    EventQueue q;
    EventId id = q.schedule(10, [] {});
    q.runOne();
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelInvalidIdFails)
{
    EventQueue q;
    EXPECT_FALSE(q.cancel(kInvalidEventId));
    EXPECT_FALSE(q.cancel(999));
}

TEST(EventQueue, CancelledEventSkippedAmongOthers)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(1); });
    EventId mid = q.schedule(20, [&] { order.push_back(2); });
    q.schedule(30, [&] { order.push_back(3); });
    q.cancel(mid);
    EXPECT_EQ(q.size(), 2u);
    while (!q.empty())
        q.runOne();
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, CallbackCanScheduleMoreEvents)
{
    EventQueue q;
    int count = 0;
    std::function<void()> reschedule = [&] {
        if (++count < 5)
            q.schedule(static_cast<Tick>(count * 10), reschedule);
    };
    q.schedule(0, reschedule);
    while (!q.empty())
        q.runOne();
    EXPECT_EQ(count, 5);
}

TEST(EventQueue, NumExecutedCounts)
{
    EventQueue q;
    for (int i = 0; i < 4; ++i)
        q.schedule(i, [] {});
    EventId id = q.schedule(9, [] {});
    q.cancel(id);
    while (!q.empty())
        q.runOne();
    EXPECT_EQ(q.numExecuted(), 4u);
}

TEST(EventQueue, NextTickSkipsCancelledHead)
{
    EventQueue q;
    EventId early = q.schedule(1, [] {});
    q.schedule(50, [] {});
    q.cancel(early);
    EXPECT_EQ(q.nextTick(), 50u);
}

TEST(EventQueueDeathTest, RunOneOnEmptyPanics)
{
    EventQueue q;
    EXPECT_DEATH(q.runOne(), "empty event queue");
}

TEST(EventQueueDeathTest, NullCallbackPanics)
{
    EventQueue q;
    EXPECT_DEATH(q.schedule(1, EventQueue::Callback{}),
                 "null callback");
}

TEST(EventQueue, ManyEventsStressOrder)
{
    EventQueue q;
    Tick last = 0;
    bool monotonic = true;
    for (int i = 0; i < 1000; ++i) {
        const Tick when = static_cast<Tick>((i * 7919) % 257);
        q.schedule(when, [] {});
    }
    while (!q.empty()) {
        const Tick t = q.runOne();
        if (t < last)
            monotonic = false;
        last = t;
    }
    EXPECT_TRUE(monotonic);
}

TEST(EventQueue, FarAndLaterNearEventAtOneTickFireInSeqOrder)
{
    // Ticks 100 are far from cursor 0; the event at 40 moves the
    // cursor so that both far events enter the ring before the near
    // one is scheduled straight into it.
    EventQueue q;
    std::vector<int> order;
    q.schedule(100, [&] { order.push_back(1); });
    q.schedule(100, [&] { order.push_back(2); });
    q.schedule(40, [&] {
        order.push_back(0);
        q.schedule(100, [&] { order.push_back(3); });
    });
    while (!q.empty())
        q.runOne();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, CancelFarEvent)
{
    EventQueue q;
    std::vector<int> order;
    const EventId top = q.schedule(10'000, [&] { order.push_back(1); });
    const EventId deep = q.schedule(20'000, [&] { order.push_back(2); });
    q.schedule(30'000, [&] { order.push_back(3); });
    EXPECT_TRUE(q.cancel(deep));
    EXPECT_FALSE(q.cancel(deep));
    EXPECT_EQ(q.nextTick(), 10'000u);
    EXPECT_TRUE(q.cancel(top));
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.nextTick(), 30'000u);
    while (!q.empty())
        q.runOne();
    EXPECT_EQ(order, (std::vector<int>{3}));
}

TEST(EventQueue, StaleIdFailsAfterSlotReuse)
{
    EventQueue q;
    const EventId first = q.schedule(5, [] {});
    q.runOne();
    const EventId second = q.schedule(6, [] {}); // reuses the slot
    EXPECT_NE(first, second);
    EXPECT_FALSE(q.cancel(first));
    EXPECT_EQ(q.size(), 1u);
    EXPECT_TRUE(q.cancel(second));
    const EventId third = q.schedule(7, [] {});
    EXPECT_FALSE(q.cancel(second));
    EXPECT_TRUE(q.cancel(third));
}

TEST(EventQueue, MoveOnlyCapture)
{
    EventQueue q;
    int seen = 0;
    auto value = std::make_unique<int>(42);
    q.schedule(3, [v = std::move(value), &seen] { seen = *v; });
    q.schedule(5'000, [v = std::make_unique<int>(7), &seen] {
        seen += *v;
    });
    while (!q.empty())
        q.runOne();
    EXPECT_EQ(seen, 49);
}

TEST(EventQueue, CaptureLargerThanInlineBuffer)
{
    std::array<std::uint64_t, 16> big{};
    std::iota(big.begin(), big.end(), 1);
    static_assert(sizeof(big) > EventQueue::Callback::kInlineBytes);
    EventQueue q;
    std::uint64_t sum = 0;
    EventQueue::Callback cb = [big, &sum] {
        sum = std::accumulate(big.begin(), big.end(),
                              std::uint64_t{0});
    };
    EventQueue::Callback moved = std::move(cb);
    EXPECT_FALSE(cb);
    q.schedule(9, std::move(moved));
    q.schedule(9'000, [big, &sum] { sum += big[15]; });
    while (!q.empty())
        q.runOne();
    EXPECT_EQ(sum, 136u + 16u);
}

TEST(EventQueue, NullCallablesMakeNullCallbacks)
{
    EXPECT_FALSE(EventQueue::Callback(std::function<void()>{}));
    void (*fn)() = nullptr;
    EXPECT_FALSE(EventQueue::Callback(fn));
    EXPECT_TRUE(EventQueue::Callback([] {}));
}

TEST(EventQueue, PendingCallbacksAreDestroyedWithTheQueue)
{
    auto token = std::make_shared<int>(0);
    {
        EventQueue q;
        std::array<char, 64> pad{};
        q.schedule(5, [token] {});                       // ring
        q.schedule(50'000, [token] {});                  // far
        q.schedule(7, [token, pad] { (void)pad; });      // spilled
        const EventId gone = q.schedule(60'000, [token] {});
        EXPECT_EQ(token.use_count(), 5);
        // A cancelled far event keeps its callback until its entry
        // surfaces or the queue goes.
        EXPECT_TRUE(q.cancel(gone));
        q.runOne(); // fired: destroyed after running
        EXPECT_EQ(token.use_count(), 4);
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, DrainedQueueIsReusedBelowTheOldCursor)
{
    EventQueue q;
    q.schedule(1'000, [] {});
    q.schedule(90'000, [] {});
    EXPECT_EQ(q.runOne(), 1'000u);
    EXPECT_EQ(q.runOne(), 90'000u);
    std::vector<Tick> fired;
    for (Tick t : {Tick{3}, Tick{500}, Tick{40}, Tick{3}})
        q.schedule(t, [&fired, t] { fired.push_back(t); });
    while (!q.empty())
        q.runOne();
    EXPECT_EQ(fired, (std::vector<Tick>{3, 3, 40, 500}));
}

TEST(EventQueueDeathTest, ScheduleBelowCursorWithPendingEventsPanics)
{
    EventQueue q;
    q.schedule(100, [] {});
    q.schedule(200, [] {});
    q.runOne();
    EXPECT_DEATH(q.schedule(50, [] {}),
                 "before tick 100, the last event run, while 1 event");
}

/**
 * Differential test against a reference model of the contract: a
 * std::map keyed (when, seq).  Random schedule/cancel/runOne
 * operations, with ticks spread across the ring and the far heap
 * and callbacks that schedule more events, must give the same firing
 * order, size(), nextTick() and cancel() results.
 */
class ReferenceHarness
{
  public:
    explicit ReferenceHarness(std::uint64_t seed) : rng_(seed) {}

    void
    step()
    {
        const std::uint64_t op = rng_.uniformInt(100);
        if (op < 45) {
            scheduleRandom();
        } else if (op < 60) {
            cancelRandom();
        } else if (!model_.empty()) {
            runOne();
        } else if (rng_.bernoulli(0.5) && cursor_ > 0) {
            // Drained: reuse the queue below its cursor, which
            // rebases it on tick 0.
            scheduleAt(rng_.uniformInt(cursor_));
            cursor_ = 0;
        }
        ASSERT_EQ(queue_.size(), model_.size());
        ASSERT_EQ(queue_.nextTick(), model_.empty()
                                         ? kMaxTick
                                         : model_.begin()->first.first);
    }

    std::uint64_t fired() const { return fired_; }

  private:
    Tick
    randomDelay()
    {
        switch (rng_.uniformInt(4)) {
        case 0:
            return rng_.uniformInt(16);
        case 1:
            return rng_.uniformRange(40, 90); // the ring/far boundary
        case 2:
            return rng_.uniformRange(90, 1'000);
        default:
            return rng_.uniformRange(1'000, 20'000);
        }
    }

    /** Schedule at the cursor (the last firing tick) plus a delay:
     *  the earliest tick the contract allows while events pend. */
    void scheduleRandom() { scheduleAt(cursor_ + randomDelay()); }

    void
    scheduleAt(Tick when)
    {
        const std::uint64_t tag = nextTag_++;
        const EventId id = queue_.schedule(when, [this, tag] {
            ASSERT_EQ(tag, expected_);
            ++fired_;
            // Callbacks schedule more events at or after now.
            if (rng_.bernoulli(0.3))
                scheduleRandom();
        });
        model_.emplace(Key{when, tag}, id);
        keyOf_.emplace(id, Key{when, tag});
        ids_.push_back(id);
    }

    void
    cancelRandom()
    {
        if (ids_.empty())
            return;
        const EventId id = ids_[rng_.uniformInt(ids_.size())];
        const auto it = keyOf_.find(id);
        const bool expect = it != keyOf_.end();
        if (expect) {
            model_.erase(it->second);
            keyOf_.erase(it);
        }
        ASSERT_EQ(queue_.cancel(id), expect);
    }

    void
    runOne()
    {
        const auto head = model_.begin();
        const Tick when = head->first.first;
        expected_ = head->first.second;
        keyOf_.erase(head->second);
        model_.erase(head);
        cursor_ = when;
        ASSERT_EQ(queue_.runOne(), when);
    }

    using Key = std::pair<Tick, std::uint64_t>; //!< (when, seq)

    Random rng_;
    EventQueue queue_;
    /** Every live event, in firing order. */
    std::map<Key, EventId> model_;
    std::map<EventId, Key> keyOf_;
    std::vector<EventId> ids_;
    Tick cursor_ = 0;
    std::uint64_t nextTag_ = 0;
    std::uint64_t expected_ = 0;
    std::uint64_t fired_ = 0;
};

TEST(EventQueue, MatchesReferenceModel)
{
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        ReferenceHarness h(seed);
        for (int i = 0; i < 30'000; ++i) {
            h.step();
            if (::testing::Test::HasFatalFailure())
                FAIL() << "seed " << seed << " op " << i;
        }
        EXPECT_GT(h.fired(), 5'000u) << "seed " << seed;
    }
}

} // namespace
} // namespace sim
} // namespace rmb
