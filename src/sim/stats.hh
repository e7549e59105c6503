/**
 * @file
 * Statistics primitives used by all networks and benches.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "sim/types.hh"

namespace rmb {
namespace sim {

/**
 * Scalar sample accumulator: count / sum / min / max / mean / variance
 * (Welford) plus exact percentiles from retained samples.
 *
 * Retention can be disabled for very large runs; percentiles then
 * return NaN but the moments remain exact.
 */
class SampleStat
{
  public:
    explicit SampleStat(bool keep_samples = true)
        : keepSamples_(keep_samples)
    {}

    /** Record one sample. */
    void add(double v);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const;
    double max() const;
    double mean() const;
    /** Sample variance (n-1 denominator); 0 for fewer than 2 samples. */
    double variance() const;
    double stddev() const;

    /**
     * Exact percentile from retained samples; @p p in [0, 100].
     * Returns NaN if retention is off or no samples were added.
     */
    double percentile(double p) const;

    /** Reset to the empty state. */
    void reset();

  private:
    bool keepSamples_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

/**
 * Tracks the busy fraction of a binary resource over simulated time
 * (e.g. one physical bus segment).  Feed it setBusy()/setFree() edges
 * and ask for the time-weighted utilization.
 */
class BusyTracker
{
  public:
    /** Mark the resource busy at time @p now (idempotent). */
    void
    setBusy(Tick now)
    {
        if (busy_)
            return;
        busy_ = true;
        since_ = now;
    }

    /** Mark the resource free at time @p now (idempotent). */
    void
    setFree(Tick now)
    {
        if (!busy_)
            return;
        rmb_assert(now >= since_, "time ran backwards in BusyTracker");
        accumulated_ += now - since_;
        busy_ = false;
    }

    /** Busy fraction of the window [0, now]. */
    double utilization(Tick now) const;

    /** Total ticks spent busy up to @p now. */
    Tick busyTicks(Tick now) const;

    bool busy() const { return busy_; }

  private:
    bool busy_ = false;
    Tick since_ = 0;
    Tick accumulated_ = 0;
};

/**
 * Integer-valued level that changes over time (e.g. number of live
 * virtual buses); tracks the time-weighted average and the maximum.
 */
class LevelTracker
{
  public:
    /** Record a level change to @p value at time @p now. */
    void set(Tick now, std::int64_t value);

    /** Adjust by @p delta at time @p now. */
    void adjust(Tick now, std::int64_t delta);

    std::int64_t current() const { return value_; }
    std::int64_t maximum() const { return max_; }

    /** Time-weighted mean level over [0, now]. */
    double average(Tick now) const;

  private:
    std::int64_t value_ = 0;
    std::int64_t max_ = 0;
    Tick lastChange_ = 0;
    double weighted_ = 0.0;
};

} // namespace sim
} // namespace rmb
