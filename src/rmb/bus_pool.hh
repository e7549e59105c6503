/**
 * @file
 * The recycled slot pool that holds the virtual buses of both
 * engines: RmbNetwork's VirtualBus and the cycle kernel's KBus.
 *
 * A bus is addressed by its slot plus the slot's generation
 * (BusHandle in virtual_bus.hh).  retire() bumps the generation, so
 * every handle of the old life goes stale at once, and keeps the
 * slot's hop capacity for the next life.  The pool grows on demand
 * and never shrinks; a live bus holds at least one segment, so it
 * never exceeds N*k slots.
 *
 * Growth moves every bus.  The rule both engines keep: no `Bus &`
 * is held across a call that can allocate a slot, which in practice
 * means across anything that can inject a bus (a segment release and
 * its wakeups).  setRelocateOnAlloc() is the test probe for that
 * rule: it moves the pool on every allocation and poisons the old
 * storage, so a reference held across one reads a dead bus.
 */

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "rmb/virtual_bus.hh"

namespace rmb {
namespace core {

/**
 * @tparam Bus a default-constructible, movable bus record with
 *         `std::uint32_t gen`, `bool live`, `BusState state` and a
 *         `hops` vector.
 */
template <typename Bus>
class BusPool
{
  public:
    /** A free slot (most recently retired first), or a new one. */
    std::uint32_t
    alloc()
    {
        if (relocate_)
            relocate();
        if (!free_.empty()) {
            const std::uint32_t slot = free_.back();
            free_.pop_back();
            return slot;
        }
        slots_.emplace_back();
        return static_cast<std::uint32_t>(slots_.size() - 1);
    }

    /** End the life in @p slot: stale its handles, keep its hop
     *  capacity, and make the slot free. */
    void
    retire(std::uint32_t slot)
    {
        Bus &bus = slots_[slot];
        bus.live = false;
        ++bus.gen;
        bus.hops.clear();
        free_.push_back(slot);
    }

    Bus &operator[](std::uint32_t slot) { return slots_[slot]; }
    const Bus &operator[](std::uint32_t slot) const
    {
        return slots_[slot];
    }

    /** Slots ever allocated (live or free). */
    std::uint32_t
    size() const
    {
        return static_cast<std::uint32_t>(slots_.size());
    }

    bool hasFree() const { return !free_.empty(); }

    /** Every slot, live or free, in slot order (cold scans). */
    const std::vector<Bus> &slots() const { return slots_; }

    /** Test probe: relocate the pool on every alloc() and poison
     *  the storage it leaves.  Off by default. */
    void setRelocateOnAlloc(bool on) { relocate_ = on; }

  private:
    /** Generation and state written into abandoned storage. */
    static constexpr std::uint32_t kPoisonGen = 0xdeadbeefu;
    static constexpr auto kPoisonState = static_cast<BusState>(0xee);

    void
    relocate()
    {
        std::vector<Bus> fresh;
        fresh.reserve(slots_.size() + 1);
        for (Bus &bus : slots_)
            fresh.push_back(std::move(bus));
        for (Bus &bus : slots_) {
            bus.live = false;
            bus.gen = kPoisonGen;
            bus.state = kPoisonState;
        }
        // The old storage stays allocated, and poisoned, until the
        // next relocation, so a stale reference reads a dead bus
        // rather than whatever malloc put there.
        abandoned_ = std::move(slots_);
        slots_ = std::move(fresh);
    }

    std::vector<Bus> slots_;
    std::vector<std::uint32_t> free_;
    bool relocate_ = false;
    std::vector<Bus> abandoned_;
};

} // namespace core
} // namespace rmb
