/**
 * @file
 * Occupancy of the N x k physical bus segments.
 *
 * Pure bookkeeping with checked invariants; the protocol logic in
 * RmbNetwork/Inc decides *what* to occupy or free, this class ensures
 * double-occupancy and double-free are impossible and tracks
 * per-segment utilization for the benches.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "rmb/types.hh"
#include "rmb/virtual_bus.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace rmb {
namespace core {

/** Occupancy grid over (gap, level) with utilization tracking. */
class SegmentTable
{
  public:
    SegmentTable(std::uint32_t num_gaps, std::uint32_t num_levels);

    std::uint32_t numGaps() const { return numGaps_; }
    std::uint32_t numLevels() const { return numLevels_; }

    /**
     * Handle of the virtual bus holding (gap, level); kNoHandle when
     * none does.  Faults are tracked separately (isFaulty): a faulted
     * segment may still report its occupant while the severed bus is
     * being torn down hop by hop.
     */
    BusHandle
    occupant(GapId gap, Level level) const
    {
        return grid_[index(gap, level)];
    }

    /** Usable and unclaimed: no occupant and not faulted. */
    bool
    isFree(GapId gap, Level level) const
    {
        return occupant(gap, level) == kNoHandle &&
               !isFaulty(gap, level);
    }

    /** Claim a free segment for bus @p bus at time @p now. */
    void occupy(GapId gap, Level level, BusHandle bus, sim::Tick now);

    /** Release a segment owned by bus @p bus at time @p now. */
    void release(GapId gap, Level level, BusHandle bus,
                 sim::Tick now);

    /**
     * Disable a segment: fault injection for robustness
     * experiments.  The segment may be occupied - the occupying
     * virtual bus keeps ownership until the protocol tears it down -
     * but no new bus can claim it until clearFault.
     */
    void markFaulty(GapId gap, Level level, sim::Tick now);

    /** Repair a faulted segment; any occupant keeps ownership. */
    void clearFault(GapId gap, Level level, sim::Tick now);

    /** @return true if (gap, level) is currently fault-injected. */
    bool
    isFaulty(GapId gap, Level level) const
    {
        return faultMask_[index(gap, level)];
    }

    /** Number of currently fault-injected segments. */
    std::uint32_t faultyCount() const { return faulty_; }

    /** Number of free levels in @p gap. */
    std::uint32_t freeLevels(GapId gap) const;

    /** Lowest free level in @p gap, or kNoLevel if the gap is full. */
    Level lowestFree(GapId gap) const;

    /** Total currently-occupied segments. */
    std::uint64_t occupiedCount() const { return occupied_; }

    /** Time-weighted busy fraction of one segment over [0, now]. */
    double utilization(GapId gap, Level level, sim::Tick now) const;

    /** Mean busy fraction over all N*k segments. */
    double averageUtilization(sim::Tick now) const;

  private:
    std::size_t
    index(GapId gap, Level level) const
    {
        rmb_assert(gap < numGaps_, "gap ", gap, " out of range");
        rmb_assert(level >= 0 &&
                       static_cast<std::uint32_t>(level) < numLevels_,
                   "level ", level, " out of range");
        return static_cast<std::size_t>(gap) * numLevels_ +
               static_cast<std::size_t>(level);
    }

    std::uint32_t numGaps_;
    std::uint32_t numLevels_;
    std::vector<BusHandle> grid_;
    /** Per-segment fault flag, orthogonal to occupancy. */
    std::vector<std::uint8_t> faultMask_;
    std::vector<sim::BusyTracker> busy_;
    std::uint64_t occupied_ = 0;
    std::uint32_t faulty_ = 0;
};

} // namespace core
} // namespace rmb
