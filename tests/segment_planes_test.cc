/**
 * @file
 * Tests for the segment store: occupancy and fault bitplanes, the
 * slot-owner array and per-segment utilization.
 */

#include <gtest/gtest.h>

#include "rmb/kernel/bitplane.hh"

namespace rmb {
namespace core {
namespace {

using kernel::kNoSlot;
using kernel::SegmentPlanes;

TEST(SegmentPlanes, StartsAllFree)
{
    SegmentPlanes t(8, 4);
    EXPECT_EQ(t.numGaps(), 8u);
    EXPECT_EQ(t.numLevels(), 4u);
    EXPECT_EQ(t.occupiedCount(), 0u);
    for (GapId g = 0; g < 8; ++g) {
        for (Level l = 0; l < 4; ++l) {
            EXPECT_TRUE(t.isFree(g, l));
            EXPECT_EQ(t.ownerSlot(g, l), kNoSlot);
        }
    }
}

TEST(SegmentPlanes, OccupyAndRelease)
{
    SegmentPlanes t(4, 3);
    t.occupy(1, 2, 7, 10);
    EXPECT_FALSE(t.isFree(1, 2));
    EXPECT_TRUE(t.occupied(1, 2));
    EXPECT_EQ(t.ownerSlot(1, 2), 7u);
    EXPECT_EQ(t.occWord(2, 0), 0b10u);
    EXPECT_EQ(t.occupiedCount(), 1u);
    t.release(1, 2, 7, 20);
    EXPECT_TRUE(t.isFree(1, 2));
    EXPECT_EQ(t.ownerSlot(1, 2), kNoSlot);
    EXPECT_EQ(t.occupiedCount(), 0u);
}

TEST(SegmentPlanes, FaultIsOrthogonalToOccupancy)
{
    SegmentPlanes t(4, 3);
    t.occupy(0, 1, 3, 0);
    t.markFaulty(0, 1, 10);
    EXPECT_TRUE(t.faulted(0, 1));
    EXPECT_EQ(t.ownerSlot(0, 1), 3u);
    EXPECT_EQ(t.faultyCount(), 1u);
    // The severed owner lets go; the segment stays unclaimable.
    t.release(0, 1, 3, 20);
    EXPECT_FALSE(t.occupied(0, 1));
    EXPECT_FALSE(t.isFree(0, 1));
    t.clearFault(0, 1, 30);
    EXPECT_TRUE(t.isFree(0, 1));
    EXPECT_EQ(t.faultyCount(), 0u);
    // A faulted segment counts as busy: [0, 30) of 60 ticks.
    EXPECT_DOUBLE_EQ(t.utilization(0, 1, 60), 0.5);
}

TEST(SegmentPlanes, GapsAreIndependent)
{
    SegmentPlanes t(4, 2);
    t.occupy(2, 1, 5, 0);
    EXPECT_TRUE(t.isFree(1, 1));
    EXPECT_TRUE(t.isFree(3, 1));
    EXPECT_FALSE(t.isFree(2, 1));
}

TEST(SegmentPlanes, UtilizationTracksBusyWindows)
{
    SegmentPlanes t(2, 2);
    t.occupy(0, 0, 1, 0);
    t.release(0, 0, 1, 50);
    EXPECT_DOUBLE_EQ(t.utilization(0, 0, 100), 0.5);
    EXPECT_DOUBLE_EQ(t.utilization(0, 1, 100), 0.0);
    // 1 of 4 segments busy half the time.
    EXPECT_DOUBLE_EQ(t.averageUtilization(100), 0.125);
}

TEST(SegmentPlanes, UtilizationOfOpenOccupancy)
{
    SegmentPlanes t(2, 1);
    t.occupy(1, 0, 9, 20);
    EXPECT_DOUBLE_EQ(t.utilization(1, 0, 100), 0.8);
}

TEST(SegmentPlanesDeathTest, DoubleOccupyPanics)
{
    SegmentPlanes t(4, 2);
    t.occupy(0, 0, 1, 0);
    EXPECT_DEATH(t.occupy(0, 0, 2, 1), "already held");
}

TEST(SegmentPlanesDeathTest, ReleaseByWrongOwnerPanics)
{
    SegmentPlanes t(4, 2);
    t.occupy(0, 0, 1, 0);
    EXPECT_DEATH(t.release(0, 0, 2, 1), "not by releasing slot");
}

TEST(SegmentPlanesDeathTest, ReleaseFreePanics)
{
    SegmentPlanes t(4, 2);
    EXPECT_DEATH(t.release(0, 0, 1, 0), "");
}

TEST(SegmentPlanesDeathTest, OutOfRangePanics)
{
    SegmentPlanes t(4, 2);
    EXPECT_DEATH(t.ownerSlot(4, 0), "gap");
    EXPECT_DEATH(t.ownerSlot(0, 2), "level");
    EXPECT_DEATH(t.ownerSlot(0, -1), "level");
}

TEST(SegmentPlanesDeathTest, OccupyBySentinelPanics)
{
    SegmentPlanes t(4, 2);
    EXPECT_DEATH(t.occupy(0, 0, kNoSlot, 0), "sentinel");
}

} // namespace
} // namespace core
} // namespace rmb
