/**
 * @file
 * Structure-of-arrays segment state: the N x k segment grid both
 * engines keep (ProtocolCore's segment store).
 *
 * One *bitplane* per level: a row of ceil(N/64) uint64_t words in
 * which bit g is gap g's segment.  Occupancy and fault state are
 * separate plane sets, so the cycle kernel's per-cycle compaction
 * candidate filter collapses to a handful of word-parallel
 * AND/OR/NOT ops per level:
 *
 *   candidates(l) = occ(l) & parity(l, c) & ~(occ(l-1) | faulty(l-1))
 *
 * Ownership (which bus holds a claimed segment) cannot be a bitplane
 * - it is a dense level-major array of pool-slot indices.  A fault
 * is orthogonal to occupancy: a faulted segment may keep its owner
 * while the severed bus tears down.  Busy tracking for utilization
 * reports rides along per cell; a faulted segment counts as busy.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "rmb/types.hh"
#include "sim/stats.hh"

namespace rmb {
namespace core {
namespace kernel {

/** Slot sentinel: "no bus holds this segment". */
constexpr std::uint32_t kNoSlot = 0xffffffffu;

/**
 * The N x k segment grid as level-major bitplanes plus an owner
 * array.  All mutators take the current tick for busy tracking.
 */
class SegmentPlanes
{
  public:
    SegmentPlanes(std::uint32_t num_gaps, std::uint32_t num_levels)
        : numGaps_(num_gaps), numLevels_(num_levels),
          words_((num_gaps + 63) / 64),
          occ_(static_cast<std::size_t>(num_levels) * words_, 0),
          faulty_(static_cast<std::size_t>(num_levels) * words_, 0),
          owner_(static_cast<std::size_t>(num_levels) * num_gaps,
                 kNoSlot),
          busy_(static_cast<std::size_t>(num_levels) * num_gaps),
          evenGaps_(words_, 0), oddGaps_(words_, 0)
    {
        rmb_assert(num_gaps >= 2 && num_levels >= 1,
                   "segment planes need >= 2 gaps and >= 1 level");
        for (std::uint32_t g = 0; g < num_gaps; ++g) {
            auto &mask = (g % 2 == 0) ? evenGaps_ : oddGaps_;
            mask[g / 64] |= std::uint64_t{1} << (g % 64);
        }
    }

    std::uint32_t numGaps() const { return numGaps_; }
    std::uint32_t numLevels() const { return numLevels_; }
    std::uint32_t wordsPerLevel() const { return words_; }

    /** Word @p w of level @p l's occupancy plane. */
    std::uint64_t
    occWord(Level l, std::uint32_t w) const
    {
        return occ_[planeIndex(l, w)];
    }

    /** Word @p w of level @p l's fault plane. */
    std::uint64_t
    faultyWord(Level l, std::uint32_t w) const
    {
        return faulty_[planeIndex(l, w)];
    }

    /** Word @p w of the mask of gaps with parity @p parity. */
    std::uint64_t
    parityWord(int parity, std::uint32_t w) const
    {
        return parity == 0 ? evenGaps_[w] : oddGaps_[w];
    }

    bool
    occupied(GapId gap, Level level) const
    {
        return (occWord(level, gap / 64) >>
                (gap % 64)) & 1;
    }

    bool
    faulted(GapId gap, Level level) const
    {
        return (faultyWord(level, gap / 64) >>
                (gap % 64)) & 1;
    }

    /** Claimable: neither occupied nor faulted. */
    bool
    isFree(GapId gap, Level level) const
    {
        const std::size_t w = planeIndex(level, gap / 64);
        return (((occ_[w] | faulty_[w]) >> (gap % 64)) & 1) == 0;
    }

    /** Pool slot holding (gap, level); kNoSlot when unclaimed. */
    std::uint32_t
    ownerSlot(GapId gap, Level level) const
    {
        return owner_[cellIndex(gap, level)];
    }

    std::uint64_t occupiedCount() const { return occupied_; }
    std::uint32_t faultyCount() const { return faulty_n_; }

    /**
     * Monotonic change counter: bumped by every occupancy or fault
     * mutation (and by bumpEpoch() for the rare movability-relevant
     * transitions that live outside the planes).  Lets the cycle
     * kernel prove "the grid is exactly as it was when this parity's
     * make pass found nothing to move" and skip the rescan.
     */
    std::uint64_t epoch() const { return epoch_; }
    void bumpEpoch() { ++epoch_; }

    void
    occupy(GapId gap, Level level, std::uint32_t slot, sim::Tick now)
    {
        rmb_assert(slot != kNoSlot, "occupy by the slot sentinel");
        const std::size_t cell = cellIndex(gap, level);
        rmb_assert(owner_[cell] == kNoSlot, "segment (", gap, ",",
                   level, ") already held by slot ", owner_[cell]);
        rmb_assert(!faulted(gap, level), "segment (", gap, ",",
                   level, ") is faulted; slot ", slot,
                   " tried to claim it");
        owner_[cell] = slot;
        occ_[planeIndex(level, gap / 64)] |= bit(gap);
        ++occupied_;
        ++epoch_;
        busy_[cell].setBusy(now);
    }

    void
    release(GapId gap, Level level, std::uint32_t slot,
            sim::Tick now)
    {
        const std::size_t cell = cellIndex(gap, level);
        rmb_assert(owner_[cell] == slot, "segment (", gap, ",",
                   level, ") held by slot ", owner_[cell],
                   ", not by releasing slot ", slot);
        owner_[cell] = kNoSlot;
        occ_[planeIndex(level, gap / 64)] &= ~bit(gap);
        --occupied_;
        ++epoch_;
        if (!faulted(gap, level))
            busy_[cell].setFree(now);
    }

    void
    markFaulty(GapId gap, Level level, sim::Tick now)
    {
        rmb_assert(!faulted(gap, level), "segment (", gap, ",",
                   level, ") is already faulted");
        faulty_[planeIndex(level, gap / 64)] |= bit(gap);
        ++faulty_n_;
        ++epoch_;
        if (owner_[cellIndex(gap, level)] == kNoSlot)
            busy_[cellIndex(gap, level)].setBusy(now);
    }

    void
    clearFault(GapId gap, Level level, sim::Tick now)
    {
        rmb_assert(faulted(gap, level), "segment (", gap, ",",
                   level, ") is not faulted");
        faulty_[planeIndex(level, gap / 64)] &= ~bit(gap);
        --faulty_n_;
        ++epoch_;
        if (owner_[cellIndex(gap, level)] == kNoSlot)
            busy_[cellIndex(gap, level)].setFree(now);
    }

    double
    utilization(GapId gap, Level level, sim::Tick now) const
    {
        return busy_[cellIndex(gap, level)].utilization(now);
    }

    double
    averageUtilization(sim::Tick now) const
    {
        if (busy_.empty() || now == 0)
            return 0.0;
        double sum = 0.0;
        for (const auto &b : busy_)
            sum += b.utilization(now);
        return sum / static_cast<double>(busy_.size());
    }

  private:
    static std::uint64_t
    bit(GapId gap)
    {
        return std::uint64_t{1} << (gap % 64);
    }

    std::size_t
    planeIndex(Level level, std::uint32_t w) const
    {
        rmb_assert(level >= 0 && static_cast<std::uint32_t>(level) <
                       numLevels_,
                   "level ", level, " out of range");
        return static_cast<std::size_t>(level) * words_ + w;
    }

    std::size_t
    cellIndex(GapId gap, Level level) const
    {
        rmb_assert(gap < numGaps_, "gap ", gap, " out of range");
        rmb_assert(level >= 0 && static_cast<std::uint32_t>(level) <
                       numLevels_,
                   "level ", level, " out of range");
        return static_cast<std::size_t>(level) * numGaps_ + gap;
    }

    std::uint32_t numGaps_;
    std::uint32_t numLevels_;
    std::uint32_t words_;
    std::vector<std::uint64_t> occ_;
    std::vector<std::uint64_t> faulty_;
    std::vector<std::uint32_t> owner_;
    std::vector<sim::BusyTracker> busy_;
    std::vector<std::uint64_t> evenGaps_;
    std::vector<std::uint64_t> oddGaps_;
    std::uint64_t occupied_ = 0;
    std::uint64_t epoch_ = 0;
    std::uint32_t faulty_n_ = 0;
};

} // namespace kernel
} // namespace core
} // namespace rmb
