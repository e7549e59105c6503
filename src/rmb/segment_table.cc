#include "rmb/segment_table.hh"

#include "common/logging.hh"

namespace rmb {
namespace core {

SegmentTable::SegmentTable(std::uint32_t num_gaps,
                           std::uint32_t num_levels)
    : numGaps_(num_gaps), numLevels_(num_levels),
      grid_(static_cast<std::size_t>(num_gaps) * num_levels, kNoHandle),
      faultMask_(grid_.size(), 0), busy_(grid_.size())
{
    rmb_assert(num_gaps >= 2 && num_levels >= 1,
               "segment table needs >= 2 gaps and >= 1 level");
}

void
SegmentTable::markFaulty(GapId gap, Level level, sim::Tick now)
{
    const std::size_t i = index(gap, level);
    rmb_assert(!faultMask_[i], "segment (", gap, ",", level,
               ") is already faulted");
    faultMask_[i] = 1;
    ++faulty_;
    // A faulted segment counts as busy for utilization purposes; if
    // it is occupied it is busy already.
    if (grid_[i] == kNoHandle)
        busy_[i].setBusy(now);
}

void
SegmentTable::clearFault(GapId gap, Level level, sim::Tick now)
{
    const std::size_t i = index(gap, level);
    rmb_assert(faultMask_[i], "segment (", gap, ",", level,
               ") is not faulted");
    faultMask_[i] = 0;
    --faulty_;
    // The occupant (a severed bus mid-teardown) may still hold the
    // segment; it only becomes idle once that release happens.
    if (grid_[i] == kNoHandle)
        busy_[i].setFree(now);
}

void
SegmentTable::occupy(GapId gap, Level level, BusHandle bus,
                     sim::Tick now)
{
    rmb_assert(bus != kNoHandle, "occupy by kNoHandle (kNoBus), the null bus handle");
    const std::size_t i = index(gap, level);
    auto &cell = grid_[i];
    rmb_assert(cell == kNoHandle, "segment (", gap, ",", level,
               ") already held by bus handle ", cell, "; bus handle ", bus,
               " tried to claim it");
    rmb_assert(!faultMask_[i], "segment (", gap, ",", level,
               ") is faulted; bus handle ", bus, " tried to claim it");
    cell = bus;
    ++occupied_;
    busy_[i].setBusy(now);
}

void
SegmentTable::release(GapId gap, Level level, BusHandle bus,
                      sim::Tick now)
{
    const std::size_t i = index(gap, level);
    auto &cell = grid_[i];
    rmb_assert(cell == bus, "segment (", gap, ",", level,
               ") held by bus handle ", cell,
               ", not by releasing bus handle ", bus);
    cell = kNoHandle;
    --occupied_;
    if (!faultMask_[i])
        busy_[i].setFree(now);
}

std::uint32_t
SegmentTable::freeLevels(GapId gap) const
{
    std::uint32_t n = 0;
    for (Level l = 0; static_cast<std::uint32_t>(l) < numLevels_; ++l)
        if (isFree(gap, l))
            ++n;
    return n;
}

Level
SegmentTable::lowestFree(GapId gap) const
{
    for (Level l = 0; static_cast<std::uint32_t>(l) < numLevels_; ++l)
        if (isFree(gap, l))
            return l;
    return kNoLevel;
}

double
SegmentTable::utilization(GapId gap, Level level, sim::Tick now) const
{
    return busy_[index(gap, level)].utilization(now);
}

double
SegmentTable::averageUtilization(sim::Tick now) const
{
    if (now == 0 || busy_.empty())
        return 0.0;
    double total = 0.0;
    for (const auto &tracker : busy_)
        total += tracker.utilization(now);
    return total / static_cast<double>(busy_.size());
}

} // namespace core
} // namespace rmb
