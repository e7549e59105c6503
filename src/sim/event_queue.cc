#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/logging.hh"

namespace rmb {
namespace sim {

namespace {

constexpr EventId kFarBit = EventId{1} << 63;
constexpr std::uint32_t kGenMask = 0x7fff'ffff;

constexpr EventId
makeId(std::uint32_t index, std::uint32_t gen, bool far)
{
    return (far ? kFarBit : 0) |
           (static_cast<EventId>(gen & kGenMask) << 32) | (index + 1);
}

} // namespace

std::uint32_t
EventQueue::allocNode()
{
    if (freeNode_ == kNil) {
        rmb_assert(nodes_.size() < kCancelled, "event queue is full");
        nodes_.emplace_back();
        return static_cast<std::uint32_t>(nodes_.size() - 1);
    }
    const std::uint32_t index = freeNode_;
    freeNode_ = nodes_[index].next;
    return index;
}

void
EventQueue::freeNode(std::uint32_t index, Node &n)
{
    ++n.gen;
    n.next = freeNode_;
    freeNode_ = index;
}

std::uint32_t
EventQueue::allocHandle()
{
    if (freeHandle_ == kNil) {
        rmb_assert(handles_.size() < kCancelled, "event queue is full");
        handles_.emplace_back();
        return static_cast<std::uint32_t>(handles_.size() - 1);
    }
    const std::uint32_t index = freeHandle_;
    freeHandle_ = handles_[index].at;
    return index;
}

void
EventQueue::freeHandle(std::uint32_t index)
{
    Handle &h = handles_[index];
    ++h.gen;
    h.at = freeHandle_;
    freeHandle_ = index;
}

void
EventQueue::pushBucket(std::uint32_t index, Node &n, Tick when)
{
    const auto b = static_cast<std::uint32_t>(when) & kRingMask;
    Bucket &bucket = buckets_[b];
    n.bucket = b;
    n.next = kNil;
    n.prev = bucket.tail;
    if (bucket.tail == kNil) {
        bucket.head = index;
        occupied_ |= std::uint64_t{1} << b;
    } else {
        nodes_[bucket.tail].next = index;
    }
    bucket.tail = index;
}

void
EventQueue::unlinkBucket(Node &n)
{
    Bucket &bucket = buckets_[n.bucket];
    if (n.prev == kNil)
        bucket.head = n.next;
    else
        nodes_[n.prev].next = n.next;
    if (n.next == kNil)
        bucket.tail = n.prev;
    else
        nodes_[n.next].prev = n.prev;
    if (bucket.head == kNil)
        occupied_ &= ~(std::uint64_t{1} << n.bucket);
}

void
EventQueue::dropCancelledFar()
{
    while (!far_.empty() &&
           handles_[far_.front().handle].at == kCancelled) {
        std::pop_heap(far_.begin(), far_.end(), FarLater{});
        freeHandle(far_.back().handle);
        far_.pop_back();
    }
}

void
EventQueue::migrate()
{
    // Every far event is at or after cursor_: the cursor only moves
    // to the earliest live event, and far_'s top is always live.
    while (!far_.empty() && far_.front().when - cursor_ < kRingSize) {
        std::pop_heap(far_.begin(), far_.end(), FarLater{});
        Far &f = far_.back();
        Handle &h = handles_[f.handle];
        if (h.at == kCancelled) {
            freeHandle(f.handle);
        } else {
            const std::uint32_t index = allocNode();
            Node &n = nodes_[index];
            n.cb = std::move(f.cb);
            n.handle = f.handle;
            n.period = f.period;
            h.at = index;
            pushBucket(index, n, f.when);
        }
        far_.pop_back();
    }
    dropCancelledFar();
    // Hand back the memory of a drained backlog (pre-scheduled
    // traffic) instead of holding its peak for the queue's lifetime.
    if (far_.capacity() > kFarKeep &&
        far_.size() < far_.capacity() / 4)
        far_.shrink_to_fit();
}

void
EventQueue::scheduleBeforeCursor(Tick when) const
{
    panic("EventQueue::schedule at tick ", when,
          " is before tick ", cursor_, ", the last event run, while ",
          live_, " event(s) are pending; schedule at or after the"
          " current simulated time (Simulator::now()), or drain the"
          " queue before reusing it for earlier ticks");
}

EventId
EventQueue::scheduleEvery(Tick when, Tick period, Callback cb)
{
    rmb_assert(period >= 1 && period <= kMaxPeriod,
               "EventQueue::scheduleEvery period ", period,
               " does not fit the ring: it must be in [1, ", kMaxPeriod,
               "]; reschedule from the callback for longer periods");
    return insert(when, static_cast<std::uint32_t>(period),
                  std::move(cb));
}

EventId
EventQueue::insert(Tick when, std::uint32_t period, Callback &&cb)
{
    rmb_assert(cb, "scheduling a null callback");
    if (when < cursor_) {
        if (live_ != 0 || running_ != kNil)
            scheduleBeforeCursor(when);
        // Drained, and so is far_ (its top is never a cancelled
        // entry): rebase the ring on tick 0, so that no later tick
        // is below the cursor until an event runs again.
        cursor_ = 0;
    }
    ++live_;
    if (when - cursor_ < kRingSize) {
        const std::uint32_t index = allocNode();
        Node &n = nodes_[index];
        n.cb = std::move(cb);
        n.handle = kNil;
        n.period = period;
        pushBucket(index, n, when);
        return makeId(index, n.gen, false);
    }
    const std::uint32_t index = allocHandle();
    Handle &h = handles_[index];
    h.at = kInFar;
    far_.push_back(Far{when, farSeq_++, index, period, std::move(cb)});
    std::push_heap(far_.begin(), far_.end(), FarLater{});
    return makeId(index, h.gen, true);
}

bool
EventQueue::cancel(EventId id)
{
    if (id == kInvalidEventId)
        return false;
    const auto index = static_cast<std::uint32_t>(id) - 1;
    const auto gen = static_cast<std::uint32_t>(id >> 32) & kGenMask;
    std::uint32_t node = index;
    if (id & kFarBit) {
        if (index >= handles_.size() ||
            (handles_[index].gen & kGenMask) != gen)
            return false;
        Handle &h = handles_[index];
        if (h.at == kInFar) {
            // The entry and its callback stay in far_ until they
            // surface; the generation bump makes the id stale now.
            ++h.gen;
            h.at = kCancelled;
            --live_;
            dropCancelledFar();
            return true;
        }
        node = h.at; // moved into the ring
    } else if (index >= nodes_.size() ||
               (nodes_[index].gen & kGenMask) != gen) {
        return false;
    }
    Node &n = nodes_[node];
    if (n.bucket == kNil) {
        // A recurring event inside its own callback: it is already
        // off the ring and off live_; drop the next firing.
        if (n.period == 0)
            return false;
        n.period = 0;
        return true;
    }
    n.cb = Callback{};
    unlinkBucket(n);
    if (n.handle != kNil)
        freeHandle(n.handle);
    freeNode(node, n);
    --live_;
    return true;
}

bool
EventQueue::ringNext(Tick &when) const
{
    if (occupied_ == 0)
        return false;
    // Rotate the cursor's bucket to bit 0: the lowest set bit is then
    // the distance to the earliest ring event.
    const auto start = static_cast<int>(cursor_ & kRingMask);
    when = cursor_ + static_cast<Tick>(
                         std::countr_zero(std::rotr(occupied_, start)));
    return true;
}

Tick
EventQueue::earliest() const
{
    // Far events are all at or after cursor_ + kRingSize, so a
    // non-empty ring always holds the earliest event.
    Tick when;
    return ringNext(when) ? when : far_.front().when;
}

Tick
EventQueue::nextTick() const
{
    return live_ == 0 ? kMaxTick : earliest();
}

bool
EventQueue::runNextUntil(Tick until, Tick &clock)
{
    if (live_ == 0)
        return false;
    const Tick when = earliest();
    if (when > until)
        return false;
    if (when != cursor_) {
        cursor_ = when;
        migrate();
    }
    const std::uint32_t index =
        buckets_[static_cast<std::uint32_t>(when) & kRingMask].head;
    Node &n = nodes_[index];
    Callback cb = std::move(n.cb);
    unlinkBucket(n);
    --live_;
    ++numExecuted_;
    clock = when;
    if (n.period != 0) {
        fireRecurring(index, when, cb);
        return true;
    }
    // Free the node first: the callback may schedule (reusing this
    // node) or cancel its own, now stale, id.
    if (n.handle != kNil)
        freeHandle(n.handle);
    freeNode(index, n);
    cb();
    return true;
}

void
EventQueue::fireRecurring(std::uint32_t index, Tick when, Callback &cb)
{
    // The node stays allocated (so its id stays valid) but unlinked
    // while the callback runs, which may grow nodes_.
    nodes_[index].bucket = kNil;
    const std::uint32_t outer = running_;
    running_ = index;
    cb();
    running_ = outer;
    Node &n = nodes_[index];
    if (n.period == 0) { // cancelled by its own callback
        if (n.handle != kNil)
            freeHandle(n.handle);
        freeNode(index, n);
        return;
    }
    rmb_assert(cursor_ == when, "a recurring event's callback ran its"
               " own queue forward");
    n.cb = std::move(cb);
    ++live_;
    pushBucket(index, n, when + n.period);
}

Tick
EventQueue::runOne()
{
    rmb_assert(live_ != 0, "runOne() on an empty event queue");
    Tick when = kMaxTick;
    runNextUntil(kMaxTick, when);
    return when;
}

} // namespace sim
} // namespace rmb
