#include "sim/stats.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace rmb {
namespace sim {

void
SampleStat::add(double v)
{
    ++count_;
    sum_ += v;
    if (count_ == 1) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    // Welford's online mean/variance update.
    const double delta = v - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (v - mean_);
    if (keepSamples_) {
        samples_.push_back(v);
        sorted_ = false;
    }
}

double
SampleStat::min() const
{
    return count_ ? min_ : std::numeric_limits<double>::quiet_NaN();
}

double
SampleStat::max() const
{
    return count_ ? max_ : std::numeric_limits<double>::quiet_NaN();
}

double
SampleStat::mean() const
{
    return count_ ? mean_ : std::numeric_limits<double>::quiet_NaN();
}

double
SampleStat::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
SampleStat::stddev() const
{
    return std::sqrt(variance());
}

double
SampleStat::percentile(double p) const
{
    rmb_assert(p >= 0.0 && p <= 100.0, "percentile(", p, ")");
    if (!keepSamples_ || samples_.empty())
        return std::numeric_limits<double>::quiet_NaN();
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    // Nearest-rank with linear interpolation.
    const double rank = p / 100.0 *
        static_cast<double>(samples_.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

void
SampleStat::reset()
{
    count_ = 0;
    sum_ = 0.0;
    min_ = max_ = 0.0;
    mean_ = m2_ = 0.0;
    samples_.clear();
    sorted_ = true;
}

Tick
BusyTracker::busyTicks(Tick now) const
{
    Tick total = accumulated_;
    if (busy_ && now > since_)
        total += now - since_;
    return total;
}

double
BusyTracker::utilization(Tick now) const
{
    if (now == 0)
        return 0.0;
    return static_cast<double>(busyTicks(now)) /
           static_cast<double>(now);
}

void
LevelTracker::set(Tick now, std::int64_t value)
{
    rmb_assert(now >= lastChange_, "time ran backwards in LevelTracker");
    weighted_ += static_cast<double>(value_) *
                 static_cast<double>(now - lastChange_);
    lastChange_ = now;
    value_ = value;
    max_ = std::max(max_, value_);
}

void
LevelTracker::adjust(Tick now, std::int64_t delta)
{
    set(now, value_ + delta);
}

double
LevelTracker::average(Tick now) const
{
    if (now == 0)
        return static_cast<double>(value_);
    double weighted = weighted_ +
        static_cast<double>(value_) *
        static_cast<double>(now - lastChange_);
    return weighted / static_cast<double>(now);
}

} // namespace sim
} // namespace rmb
