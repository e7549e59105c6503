/**
 * @file
 * Tests of causal span reconstruction (obs::SpanBuilder), the
 * log-bucketed histogram, the offline causality checker and the
 * Chrome-trace exporter - mostly over synthetic event vectors so
 * each edge case (Nack-only messages, severed circuits, spans still
 * open at simulation end) is pinned exactly, plus one integration
 * pass over a real network trace.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "common/logging.hh"
#include "obs/histogram.hh"
#include "obs/json.hh"
#include "obs/perfetto.hh"
#include "obs/sinks.hh"
#include "obs/span.hh"
#include "obs/trace.hh"
#include "rmb/network.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "workload/driver.hh"
#include "workload/permutation.hh"

namespace rmb {
namespace obs {
namespace {

TraceEvent
ev(EventKind kind, sim::Tick at, std::uint64_t msg = 0,
   std::uint64_t bus = 0, std::uint32_t node = 0,
   std::uint32_t gap = 0, std::int32_t level = -1,
   std::uint64_t a = 0)
{
    TraceEvent e;
    e.kind = kind;
    e.at = at;
    e.message = msg;
    e.bus = bus;
    e.node = node;
    e.gap = gap;
    e.level = level;
    e.a = a;
    return e;
}

/** The minimal healthy life of one message on one segment. */
std::vector<TraceEvent>
cleanTrace()
{
    return {
        ev(EventKind::Inject, 10, 1, 0, 0),
        ev(EventKind::HeaderHop, 12, 1, 5, 0, 0, 1),
        ev(EventKind::Hack, 20, 1, 5, 1),
        ev(EventKind::Deliver, 50, 1, 5, 1),
        ev(EventKind::Teardown, 52, 1, 5, 1, 0, -1, kTeardownFack),
        ev(EventKind::SegmentFree, 54, 1, 5, 0, 0, 1,
           kFreeTeardown),
    };
}

const Span *
findSpan(const std::vector<Span> &spans, SpanKind kind,
         std::size_t nth = 0)
{
    for (const Span &s : spans) {
        if (s.kind != kind)
            continue;
        if (nth == 0)
            return &s;
        --nth;
    }
    return nullptr;
}

TEST(SpanBuilder, CleanMessageYieldsFourPhases)
{
    SpanBuilder b;
    for (const TraceEvent &e : cleanTrace())
        b.onEvent(e);
    b.finish(60);

    const Span *setup = findSpan(b.spans(), SpanKind::Setup);
    ASSERT_NE(setup, nullptr);
    EXPECT_EQ(setup->begin, 10u);
    EXPECT_EQ(setup->end, 20u);
    EXPECT_FALSE(setup->open);
    EXPECT_FALSE(setup->refused);

    const Span *stream = findSpan(b.spans(), SpanKind::Streaming);
    ASSERT_NE(stream, nullptr);
    EXPECT_EQ(stream->begin, 20u);
    EXPECT_EQ(stream->end, 50u);
    EXPECT_EQ(stream->bus, 5u);

    // Teardown runs from the Fack start to the last segment free.
    const Span *td = findSpan(b.spans(), SpanKind::Teardown);
    ASSERT_NE(td, nullptr);
    EXPECT_EQ(td->begin, 52u);
    EXPECT_EQ(td->end, 54u);
    EXPECT_FALSE(td->open);

    // The segment lane covers header claim -> teardown free.
    const Span *seg =
        findSpan(b.spans(), SpanKind::SegmentOccupancy);
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->begin, 12u);
    EXPECT_EQ(seg->end, 54u);
    EXPECT_EQ(seg->gap, 0u);
    EXPECT_EQ(seg->level, 1);

    EXPECT_EQ(b.phaseStat(SpanKind::Setup).count(), 1u);
    EXPECT_DOUBLE_EQ(b.phaseStat(SpanKind::Setup).mean(), 10.0);
    EXPECT_EQ(b.phaseStat(SpanKind::Streaming).count(), 1u);
    EXPECT_TRUE(b.instants().empty());
}

TEST(SpanBuilder, NackOnlyMessageIsRefusedNeverStreams)
{
    // A message that only ever collects Nacks: every attempt's Setup
    // span closes refused, a Backoff span per backoff, and no
    // Streaming span at all.
    SpanBuilder b;
    b.onEvent(ev(EventKind::Inject, 0, 7, 0, 3));
    b.onEvent(ev(EventKind::Nack, 4, 7, 0, 3, 0, -1,
                 kNackNoSegment));
    b.onEvent(ev(EventKind::Backoff, 4, 7, 0, 3, 0, -1, 6));
    b.onEvent(ev(EventKind::Retry, 10, 7, 0, 3, 0, -1, 1));
    b.onEvent(ev(EventKind::Nack, 14, 7, 0, 3, 0, -1,
                 kNackNoSegment));
    b.onEvent(ev(EventKind::Fail, 14, 7, 0, 3));
    b.finish(20);

    std::size_t setups = 0;
    for (const Span &s : b.spans()) {
        EXPECT_NE(s.kind, SpanKind::Streaming);
        if (s.kind == SpanKind::Setup) {
            ++setups;
            EXPECT_TRUE(s.refused);
            EXPECT_FALSE(s.open);
        }
    }
    EXPECT_EQ(setups, 2u);

    const Span *back = findSpan(b.spans(), SpanKind::Backoff);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(back->begin, 4u);
    EXPECT_EQ(back->end, 10u);

    // Both Nacks and the Fail are plotted as instants.
    EXPECT_EQ(b.instants().size(), 3u);
}

TEST(SpanBuilder, SeveredThenRecoveredSplitsTheStream)
{
    // Attempt 1 establishes, gets severed mid-stream; the retry
    // establishes again and delivers.  The first Streaming span must
    // carry severed=true, the second must be clean.
    SpanBuilder b;
    b.onEvent(ev(EventKind::Inject, 0, 9, 0, 2));
    b.onEvent(ev(EventKind::Hack, 10, 9, 4, 2));
    b.onEvent(ev(EventKind::BusSevered, 30, 9, 4, 2, 0, -1,
                 kSeverFault));
    b.onEvent(ev(EventKind::Retry, 40, 9, 0, 2, 0, -1, 1));
    b.onEvent(ev(EventKind::Hack, 55, 9, 6, 2));
    b.onEvent(ev(EventKind::Deliver, 80, 9, 6, 2));
    b.finish(100);

    const Span *first = findSpan(b.spans(), SpanKind::Streaming, 0);
    const Span *second = findSpan(b.spans(), SpanKind::Streaming, 1);
    ASSERT_NE(first, nullptr);
    ASSERT_NE(second, nullptr);
    EXPECT_TRUE(first->severed);
    EXPECT_EQ(first->begin, 10u);
    EXPECT_EQ(first->end, 30u);
    EXPECT_EQ(first->bus, 4u);
    EXPECT_FALSE(second->severed);
    EXPECT_EQ(second->end, 80u);
    EXPECT_EQ(second->bus, 6u);

    // Severed spans still count toward the phase stat (they closed
    // with a real end time), and the sever shows up as an instant.
    EXPECT_EQ(b.phaseStat(SpanKind::Streaming).count(), 2u);
    ASSERT_EQ(b.instants().size(), 1u);
    EXPECT_EQ(b.instants()[0].kind, EventKind::BusSevered);
}

TEST(SpanBuilder, InFlightSpansAtFinishAreFlaggedNotDropped)
{
    SpanBuilder b;
    b.onEvent(ev(EventKind::Inject, 0, 3, 0, 1));
    b.onEvent(ev(EventKind::HeaderHop, 2, 3, 8, 1, 1, 0));
    b.onEvent(ev(EventKind::Hack, 9, 3, 8, 1));
    // Simulation ends mid-stream: no Deliver, no Teardown.
    b.finish(42);

    const Span *stream = findSpan(b.spans(), SpanKind::Streaming);
    ASSERT_NE(stream, nullptr);
    EXPECT_TRUE(stream->open);
    EXPECT_EQ(stream->end, 42u);

    const Span *seg =
        findSpan(b.spans(), SpanKind::SegmentOccupancy);
    ASSERT_NE(seg, nullptr);
    EXPECT_TRUE(seg->open);

    // Open spans are excluded from the clean phase statistics.
    EXPECT_EQ(b.phaseStat(SpanKind::Streaming).count(), 0u);
    EXPECT_EQ(b.phaseStat(SpanKind::SegmentOccupancy).count(), 0u);

    // finish() is idempotent and does not double-close.
    const std::size_t n = b.spans().size();
    b.finish(42);
    EXPECT_EQ(b.spans().size(), n);
}

TEST(SpanBuilder, DeadLetterIsKeptAsAnInstant)
{
    // A write-off emits DeadLetter (a = reason) and then the Fail
    // that closes the message's open phases.
    SpanBuilder b;
    b.onEvent(ev(EventKind::Inject, 0, 7, 0, 3));
    b.onEvent(ev(EventKind::DeadLetter, 25, 7, 0, 3, 0, -1,
                 kDeadRetriesExhausted));
    b.onEvent(ev(EventKind::Fail, 25, 7, 0, 3));
    b.finish(100);

    const Span *setup = findSpan(b.spans(), SpanKind::Setup);
    ASSERT_NE(setup, nullptr);
    EXPECT_FALSE(setup->open);
    EXPECT_EQ(setup->end, 25u);
    ASSERT_EQ(b.instants().size(), 2u);
    EXPECT_EQ(b.instants()[0].kind, EventKind::DeadLetter);
    EXPECT_EQ(b.instants()[0].message, 7u);
    EXPECT_EQ(b.instants()[0].a, kDeadRetriesExhausted);
    EXPECT_EQ(b.instants()[1].kind, EventKind::Fail);
}

TEST(SpanBuilder, BridgeFailIsKeptAsAnInstant)
{
    SpanBuilder b;
    b.onEvent(ev(EventKind::BridgeFail, 30, 0, 0, 2, 0, -1, 1));
    b.finish(100);

    EXPECT_TRUE(b.spans().empty());
    ASSERT_EQ(b.instants().size(), 1u);
    EXPECT_EQ(b.instants()[0].kind, EventKind::BridgeFail);
    EXPECT_EQ(b.instants()[0].node, 2u);
    EXPECT_EQ(b.instants()[0].a, 1u); // permanent
}

TEST(SpanBuilder, BridgeRepairIsKeptAsAnInstant)
{
    SpanBuilder b;
    b.onEvent(ev(EventKind::BridgeRepair, 90, 0, 0, 2));
    b.finish(100);

    EXPECT_TRUE(b.spans().empty());
    ASSERT_EQ(b.instants().size(), 1u);
    EXPECT_EQ(b.instants()[0].kind, EventKind::BridgeRepair);
    EXPECT_EQ(b.instants()[0].at, 90u);
    EXPECT_EQ(b.instants()[0].node, 2u);
}

TEST(LogHistogram, BucketBoundariesArePowersOfTwo)
{
    EXPECT_EQ(LogHistogram::bucketIndex(0), 0u);
    EXPECT_EQ(LogHistogram::bucketIndex(1), 1u);
    EXPECT_EQ(LogHistogram::bucketIndex(2), 2u);
    EXPECT_EQ(LogHistogram::bucketIndex(3), 2u);
    EXPECT_EQ(LogHistogram::bucketIndex(4), 3u);
    EXPECT_EQ(LogHistogram::bucketIndex(7), 3u);
    EXPECT_EQ(LogHistogram::bucketIndex(8), 4u);
    EXPECT_EQ(LogHistogram::bucketIndex((1ull << 62)), 63u);
    EXPECT_EQ(LogHistogram::bucketIndex(~0ull), 63u);

    EXPECT_EQ(LogHistogram::bucketLow(0), 0u);
    EXPECT_EQ(LogHistogram::bucketLow(1), 1u);
    EXPECT_EQ(LogHistogram::bucketLow(5), 16u);
    // Every boundary value lands in the bucket it opens.
    for (std::size_t i = 1; i < LogHistogram::kNumBuckets; ++i)
        EXPECT_EQ(LogHistogram::bucketIndex(LogHistogram::bucketLow(i)),
                  i);
}

TEST(LogHistogram, PercentilesInterpolateAndClamp)
{
    LogHistogram h;
    EXPECT_TRUE(std::isnan(h.percentile(0.5)));
    EXPECT_TRUE(std::isnan(h.mean()));

    for (std::uint64_t v : {10u, 20u, 30u, 40u, 1000u})
        h.add(v);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.min(), 10u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_DOUBLE_EQ(h.mean(), 220.0);

    // Percentiles are approximate but must be monotone in p and
    // clamped to the observed range.
    const double p50 = h.percentile(0.50);
    const double p90 = h.percentile(0.90);
    const double p99 = h.percentile(0.99);
    EXPECT_GE(p50, 10.0);
    EXPECT_LE(p99, 1000.0);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    // p99 of 5 samples sits in the top bucket with the 1000.
    EXPECT_GE(p99, 512.0);

    const std::string json = h.toJson();
    EXPECT_TRUE(jsonValid(json)) << json;
    EXPECT_NE(json.find("\"count\":5"), std::string::npos);

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_TRUE(jsonValid(h.toJson()));
}

TEST(CheckTrace, HealthyTracePasses)
{
    EXPECT_TRUE(checkTrace(cleanTrace()).empty());
}

TEST(CheckTrace, DroppedHackAndInjectAreFlagged)
{
    auto events = cleanTrace();
    // Remove the Hack: the Deliver is now causally orphaned.
    events.erase(events.begin() + 2);
    const auto problems = checkTrace(events);
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("without a prior hack"),
              std::string::npos);

    // A Hack with no Inject at all is likewise flagged.
    const auto orphan =
        checkTrace({ev(EventKind::Hack, 5, 2, 1, 0)});
    ASSERT_EQ(orphan.size(), 1u);
    EXPECT_NE(orphan[0].find("without a prior inject"),
              std::string::npos);
}

TEST(CheckTrace, SegmentDoubleClaimAndDoubleFree)
{
    std::vector<TraceEvent> events = {
        ev(EventKind::HeaderHop, 1, 1, 5, 0, 3, 2),
        ev(EventKind::HeaderHop, 2, 2, 6, 1, 3, 2), // double claim
        ev(EventKind::SegmentFree, 3, 1, 5, 0, 3, 2),
        ev(EventKind::SegmentFree, 4, 1, 5, 0, 3, 2), // double free
    };
    const auto problems = checkTrace(events);
    ASSERT_EQ(problems.size(), 2u);
    EXPECT_NE(problems[0].find("while held by bus 5"),
              std::string::npos);
    EXPECT_NE(problems[1].find("freed while already free"),
              std::string::npos);
}

TEST(CheckTrace, DroppedFackLeaksTheBus)
{
    auto events = cleanTrace();
    // Drop the Fack teardown (and the free it would have caused).
    events.resize(4);
    const auto problems = checkTrace(events);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("dropped Fack"), std::string::npos);
}

TEST(CheckTrace, TimeRegressionAndLemmaOneSkew)
{
    const auto regress = checkTrace({
        ev(EventKind::Inject, 10, 1),
        ev(EventKind::Inject, 5, 2),
    });
    ASSERT_EQ(regress.size(), 1u);
    EXPECT_NE(regress[0].find("goes back in time"),
              std::string::npos);

    // Adjacent INCs two cycles apart violate Lemma 1.
    const auto skew = checkTrace({
        ev(EventKind::CycleFlip, 1, 0, 0, 0, 0, -1, 5),
        ev(EventKind::CycleFlip, 2, 0, 0, 1, 1, -1, 3),
    });
    ASSERT_FALSE(skew.empty());
    EXPECT_NE(skew[0].find("Lemma 1"), std::string::npos);

    // One cycle apart is the systolic steady state: healthy.
    EXPECT_TRUE(checkTrace({
                    ev(EventKind::CycleFlip, 1, 0, 0, 0, 0, -1, 5),
                    ev(EventKind::CycleFlip, 2, 0, 0, 1, 1, -1, 4),
                }).empty());
}

TEST(ChromeTrace, SyntheticSpansExportValidJson)
{
    SpanBuilder b;
    for (const TraceEvent &e : cleanTrace())
        b.onEvent(e);
    b.onEvent(ev(EventKind::SegmentFail, 55, 0, 0, 2, 2, 0));
    b.finish(60);

    std::ostringstream out;
    writeChromeTrace(out, b.spans(), b.instants());
    const std::string json = out.str();
    EXPECT_TRUE(jsonValid(json)) << json;
    EXPECT_EQ(json.rfind("[", 0), 0u);
    // Named tracks and at least one complete event and one instant.
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("segment_fail"), std::string::npos);
}

TEST(SpanBuilder, RealNetworkTraceReconstructsAndChecksClean)
{
    sim::Simulator s;
    core::RmbConfig cfg;
    cfg.numNodes = 8;
    cfg.numBuses = 2;
    cfg.seed = 11;
    cfg.verify = core::VerifyLevel::Full;
    core::RmbNetwork net(s, cfg);

    // Record the raw events and fold spans in one pass.
    struct VectorSink final : TraceSink
    {
        std::vector<TraceEvent> events;
        void
        onEvent(const TraceEvent &e) override
        {
            events.push_back(e);
        }
    } raw;
    SpanBuilder builder;
    TeeSink tee(&raw, &builder);
    net.setTraceSink(&tee);

    sim::Random rng(23);
    const auto pairs =
        workload::toPairs(workload::randomFullTraffic(8, rng));
    const auto r = workload::runBatch(net, pairs, 12, 1'000'000);
    ASSERT_TRUE(r.completed);
    s.runFor(2000); // drain trailing Facks
    builder.finish(s.now());

    // Every delivered message produced a Setup and a Streaming
    // span; Nack-retry may add refused setups on top.
    const auto countKind = [&builder](SpanKind kind) {
        std::size_t n = 0;
        for (const Span &span : builder.spans())
            n += span.kind == kind ? 1 : 0;
        return n;
    };
    EXPECT_GE(countKind(SpanKind::Setup), pairs.size());
    EXPECT_EQ(countKind(SpanKind::Streaming), pairs.size());
    EXPECT_EQ(builder.phaseStat(SpanKind::Streaming).count(),
              pairs.size());

    // The live trace passes the offline causality checker.
    const auto problems = checkTrace(raw.events);
    for (const auto &p : problems)
        ADD_FAILURE() << p;

    // And exports a loadable Chrome trace.
    std::ostringstream out;
    writeChromeTrace(out, builder.spans(), builder.instants());
    EXPECT_TRUE(jsonValid(out.str()));
}

TEST(PanicHookDeath, AttachedSinkDumpsFlightRecorderOnPanic)
{
    // setTraceSink wires the sink's postMortem() into the panic
    // path: any invariant-audit panic must print the recent event
    // tail before aborting.
    sim::Simulator s;
    core::RmbConfig cfg;
    cfg.numNodes = 8;
    cfg.numBuses = 2;
    cfg.seed = 1;
    obs::RingBufferSink recorder(16);
    core::RmbNetwork net(s, cfg);
    net.setTraceSink(&recorder);
    net.send(0, 3, 8);
    s.runFor(50);
    ASSERT_GT(recorder.seen(), 0u);
    EXPECT_DEATH(panic("synthetic failure"),
                 "trace flight recorder: last");
}

} // namespace
} // namespace obs
} // namespace rmb
