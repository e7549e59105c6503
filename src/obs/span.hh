/**
 * @file
 * Causal span reconstruction over the flat trace-event stream.
 *
 * A SpanBuilder folds the per-action TraceEvents into intervals that
 * mirror the paper's circuit phases: per-message backoff, header
 * setup (HF -> Hack/Nack), data streaming (Hack -> final flit) and
 * teardown, plus per-(gap, level) segment-occupancy lanes,
 * compaction make/break moves and per-INC odd/even cycles.  The
 * result feeds the Chrome-trace exporter (obs/perfetto.hh), the
 * traceview phase-latency table, and the offline causality checker.
 *
 * The builder is itself a TraceSink, so it can sit directly on a
 * live network or be replayed over a JSONL trace offline; either
 * way it never touches the network, so attaching one cannot perturb
 * a deterministic run.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace rmb {
namespace obs {

/** The interval vocabulary built from EventKind sequences. */
enum class SpanKind : std::uint8_t
{
    Backoff,          //!< retry backoff window at the source
    Setup,            //!< injection/retry -> Hack, Nack or sever
    Streaming,        //!< Hack -> final-flit delivery
    Blocked,          //!< Wait-mode header blocked at a gap
    Teardown,         //!< teardown start -> last segment freed
    SegmentOccupancy, //!< one (gap, level) held by one bus
    CompactionMove,   //!< make step -> break / cancel / early done
    IncCycle,         //!< one odd/even compaction cycle of one INC
};

/** Number of SpanKind values (for per-kind phase stats). */
constexpr std::size_t kNumSpanKinds =
    static_cast<std::size_t>(SpanKind::IncCycle) + 1;

/** Stable lower_snake name of @p kind. */
const char *spanKindName(SpanKind kind);

/**
 * One reconstructed interval.  As with TraceEvent, fields that do
 * not apply stay at their defaults; `a` is kind-specific (Setup:
 * attempt ordinal; Teardown: TeardownKind; CompactionMove: target
 * level; IncCycle: cycle count).
 */
struct Span
{
    SpanKind kind = SpanKind::Setup;
    sim::Tick begin = 0;
    sim::Tick end = 0;
    /** True when the simulation ended with the span still open
     *  (finish() closes such spans at the final tick and flags
     *  them rather than dropping them). */
    bool open = false;
    /** True when the span was cut short by a fault/watchdog sever. */
    bool severed = false;
    /** True when a Setup span ended in a Nack instead of a Hack. */
    bool refused = false;
    std::uint64_t message = 0;
    std::uint64_t bus = 0;
    std::uint32_t node = 0;
    std::uint32_t gap = 0;
    std::int32_t level = -1;
    std::uint64_t a = 0;

    sim::Tick duration() const { return end - begin; }
};

/**
 * TraceSink that folds events into Spans.  Feed it events in
 * emission order (live, or replayed from a file), then call
 * finish(now) once; spans() returns every completed interval and
 * instants() the point events worth plotting (Nack, Fail,
 * DeadLetter, SegmentFail/Repair, BusSevered, MessageRecovered,
 * WatchdogFire, and the bridge arrive/depart/deflect/fail/repair).
 */
class SpanBuilder final : public TraceSink
{
  public:
    void onEvent(const TraceEvent &event) override;

    /**
     * Close every span still open at @p now, flagging it open=true.
     * Idempotent; onEvent must not be called afterwards.
     */
    void finish(sim::Tick now);

    /** Completed spans, in completion order. */
    const std::vector<Span> &spans() const { return spans_; }

    /** Plot-worthy point events, in emission order. */
    const std::vector<TraceEvent> &instants() const
    {
        return instants_;
    }

    /** Durations of every *cleanly closed* span of @p kind. */
    const sim::SampleStat &phaseStat(SpanKind kind) const;

    /** Events folded so far. */
    std::uint64_t eventCount() const { return eventCount_; }

  private:
    void close(Span span, sim::Tick end);
    void closeOpenMessagePhases(const TraceEvent &event,
                                bool severed);

    static std::uint64_t
    segKey(std::uint32_t gap, std::int32_t level)
    {
        return (static_cast<std::uint64_t>(gap) << 32) |
               static_cast<std::uint32_t>(level);
    }

    std::vector<Span> spans_;
    std::vector<TraceEvent> instants_;
    sim::SampleStat phaseStats_[kNumSpanKinds];
    std::uint64_t eventCount_ = 0;
    bool finished_ = false;

    std::map<std::uint64_t, Span> openSetup_;     //!< by message
    std::map<std::uint64_t, Span> openStreaming_; //!< by message
    std::map<std::uint64_t, Span> openBlocked_;   //!< by message
    struct OpenTeardown
    {
        Span span;
        bool sawFree = false;
    };
    std::map<std::uint64_t, OpenTeardown> openTeardown_; //!< by bus
    std::map<std::uint64_t, Span> openSegments_; //!< by (gap,level)
    std::map<std::uint64_t, Span> openMoves_; //!< by (gap,fromLevel)
    std::map<std::uint32_t, Span> openCycles_;   //!< by INC index
};

/**
 * Offline causality checker.  Walks @p events (emission order) and
 * returns one human-readable line per violated protocol law:
 *
 * - timestamps must be non-decreasing,
 * - a message's Hack needs a prior Inject, its Deliver a prior Hack,
 * - every segment is freed exactly once per occupation and never
 *   double-claimed,
 * - a delivered message's bus must start a Fack teardown and have
 *   every segment freed by trace end (a dropped Fack leaks the bus),
 * - Lemma 1: adjacent INC cycle counts never drift more than 1
 *   apart (from CycleFlip events).
 *
 * Empty result == healthy trace.
 */
std::vector<std::string>
checkTrace(const std::vector<TraceEvent> &events);

} // namespace obs
} // namespace rmb
