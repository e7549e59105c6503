/**
 * @file
 * The discrete-event queue underlying every simulation in this
 * repository.
 *
 * Events are arbitrary callables scheduled at absolute ticks.  They
 * fire in the total order (when, seq): by tick, and in scheduling
 * order within a tick (a stable FIFO), which keeps simulations
 * deterministic for a given seed.  Events can be cancelled through
 * the handle returned at scheduling time.
 *
 * The queue is a calendar queue.  A ring of kRingSize per-tick FIFO
 * buckets holds every event due within kRingSize ticks of the
 * cursor (the tick of the last event run); an occupancy bitmap finds
 * the next non-empty bucket.  Events further out wait in a min-heap
 * keyed (when, seq) and move into the ring as the cursor advances.
 * An event that went to the heap was scheduled before any event put
 * straight into the ring for the same tick, and it moves into the
 * ring before such an insert can happen, so the FIFO order holds.
 *
 * A recurring event (scheduleEvery) keeps its node: after each
 * firing the node is linked again at `when + period`, at the tail of
 * that tick's bucket, which is the FIFO position a callback that
 * rescheduled itself as its last act would take.  See
 * docs/ENGINE.md, "Event queue".
 */

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace rmb {
namespace sim {

/**
 * Identifies a scheduled event so it can be cancelled: an index plus
 * one in the low 32 bits, a 31-bit generation above it, and in the
 * top bit whether the index names a ring node or a far handle.  A
 * node's or handle's generation changes whenever its event fires or
 * is cancelled, so an old id never matches a reused one (until that
 * one index has been reused 2^31 times).
 */
using EventId = std::uint64_t;

/** An event id that is never allocated. */
constexpr EventId kInvalidEventId = 0;

/**
 * Time-ordered queue of callbacks.  Not thread safe; the entire
 * simulator is single threaded by design.
 */
class EventQueue
{
  public:
    /**
     * A move-only `void()` callable.  Captures of up to kInlineBytes
     * (pointer-aligned, nothrow-movable) live inline; larger ones
     * spill to the heap.  A default-constructed Callback is null.
     */
    class Callback
    {
      public:
        static constexpr std::size_t kInlineBytes = 32;

        Callback() noexcept = default;

        template <typename F, typename D = std::decay_t<F>,
                  typename = std::enable_if_t<
                      !std::is_same_v<D, Callback> &&
                      std::is_invocable_r_v<void, D &>>>
        Callback(F &&f)
        {
            if (isNull<D>(f))
                return;
            // The unused tail is zeroed so that a memcpy move never
            // reads indeterminate bytes.
            if constexpr (fitsInline<D>()) {
                ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
                std::memset(buf_ + sizeof(D), 0,
                            kInlineBytes - sizeof(D));
                ops_ = &kInlineOps<D>;
            } else {
                D *heap = new D(std::forward<F>(f));
                std::memcpy(buf_, &heap, sizeof heap);
                std::memset(buf_ + sizeof heap, 0,
                            kInlineBytes - sizeof heap);
                ops_ = &kHeapOps<D>;
            }
        }

        Callback(Callback &&other) noexcept { take(other); }

        Callback &
        operator=(Callback &&other) noexcept
        {
            if (this != &other) {
                reset();
                take(other);
            }
            return *this;
        }

        Callback(const Callback &) = delete;
        Callback &operator=(const Callback &) = delete;

        ~Callback() { reset(); }

        explicit operator bool() const noexcept { return ops_ != nullptr; }

        void operator()() { ops_->invoke(buf_); }

      private:
        /** Per-type operations.  A null relocate means the stored
         *  bytes move with memcpy; a null destroy means there is
         *  nothing to destroy. */
        struct Ops
        {
            void (*invoke)(void *);
            void (*relocate)(void *dst, void *src);
            void (*destroy)(void *);
        };

        template <typename D>
        static constexpr bool
        fitsInline()
        {
            return sizeof(D) <= kInlineBytes &&
                   alignof(D) <= alignof(void *) &&
                   std::is_nothrow_move_constructible_v<D>;
        }

        template <typename D>
        static D *
        heapPtr(void *buf)
        {
            D *p;
            std::memcpy(&p, buf, sizeof p);
            return p;
        }

        template <typename D>
        static constexpr Ops kInlineOps = {
            [](void *buf) { (*std::launder(static_cast<D *>(buf)))(); },
            std::is_trivially_copyable_v<D>
                ? nullptr
                : +[](void *dst, void *src) {
                      D *from = std::launder(static_cast<D *>(src));
                      ::new (dst) D(std::move(*from));
                      from->~D();
                  },
            std::is_trivially_destructible_v<D>
                ? nullptr
                : +[](void *buf) {
                      std::launder(static_cast<D *>(buf))->~D();
                  },
        };

        template <typename D>
        static constexpr Ops kHeapOps = {
            [](void *buf) { (*heapPtr<D>(buf))(); },
            nullptr,
            [](void *buf) { delete heapPtr<D>(buf); },
        };

        template <typename D>
        struct IsStdFunction : std::false_type
        {
        };
        template <typename S>
        struct IsStdFunction<std::function<S>> : std::true_type
        {
        };

        /** A null function pointer or std::function makes a null
         *  Callback, as it did when Callback was a std::function. */
        template <typename D>
        static bool
        isNull(const D &f)
        {
            if constexpr (std::is_pointer_v<D> ||
                          IsStdFunction<D>::value)
                return !f;
            else
                return false;
        }

        void
        take(Callback &other) noexcept
        {
            ops_ = other.ops_;
            if (!ops_)
                return;
            if (ops_->relocate)
                ops_->relocate(buf_, other.buf_);
            else
                std::memcpy(buf_, other.buf_, kInlineBytes);
            other.ops_ = nullptr;
        }

        void
        reset() noexcept
        {
            if (ops_ && ops_->destroy)
                ops_->destroy(buf_);
            ops_ = nullptr;
        }

        alignas(void *) unsigned char buf_[kInlineBytes];
        const Ops *ops_ = nullptr;
    };

    /** Longest period scheduleEvery() accepts: a re-linked node must
     *  land in the ring. */
    static constexpr Tick kMaxPeriod = 63;

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p cb to fire at absolute time @p when.  While events
     * are pending, @p when must not precede the tick of the last
     * event run; a drained queue accepts any tick.
     */
    EventId
    schedule(Tick when, Callback cb)
    {
        return insert(when, 0, std::move(cb));
    }

    /**
     * Schedule @p cb to fire at @p when and then every @p period
     * ticks, in [1, kMaxPeriod], until cancelled.  Each firing
     * counts in numExecuted(); while its callback runs the event is
     * not pending (size(), nextTick()), exactly as if the callback
     * rescheduled itself as its last act.  The id stays valid for
     * every firing; cancelling it from inside the callback stops the
     * next one.
     */
    EventId scheduleEvery(Tick when, Tick period, Callback cb);

    /**
     * Cancel a previously scheduled event.
     * @retval true if the event was pending and is now cancelled.
     * @retval false if it already fired, was already cancelled, or the
     *         id is invalid.
     */
    bool cancel(EventId id);

    /** @return true if no live (non-cancelled) events remain. */
    bool empty() const { return live_ == 0; }

    /** Number of live pending events. */
    std::uint64_t size() const { return live_; }

    /** Tick of the earliest live event; kMaxTick when empty. */
    Tick nextTick() const;

    /**
     * Pop and run the earliest live event.  Must not be called on an
     * empty queue.
     * @return the tick the event fired at.
     */
    Tick runOne();

    /**
     * Pop and run the earliest live event if it is due at or before
     * @p until, storing its tick in @p clock before the callback
     * runs.  One queue lookup per event: the Simulator's run loops
     * use this instead of nextTick() plus runOne().
     * @return false, doing nothing, when no event is due.
     */
    bool runNextUntil(Tick until, Tick &clock);

    /** Total number of events executed so far. */
    std::uint64_t numExecuted() const { return numExecuted_; }

  private:
    /** 64 buckets, one occupancy word.  On the event engine ~97% of
     *  events land under 16 ticks ahead and ~0.1% between 64 and
     *  256; a larger ring only costs memory per queue. */
    static constexpr Tick kRingSize = kMaxPeriod + 1;
    static constexpr std::uint32_t kRingMask = kRingSize - 1;
    static constexpr std::uint32_t kNil = UINT32_MAX;
    /** far_ capacity kept however empty it gets. */
    static constexpr std::size_t kFarKeep = 1024;

    /** A ring event: an entry in its bucket's FIFO. */
    struct Node
    {
        Callback cb;
        std::uint32_t next = kNil; //!< bucket FIFO or free list
        std::uint32_t prev = kNil; //!< bucket FIFO
        std::uint32_t gen = 0;
        /** Linked bucket; kNil while a recurring callback runs. */
        std::uint32_t bucket = 0;
        /** The far handle of an event that came from far_, or kNil. */
        std::uint32_t handle = kNil;
        /** Recurrence period; 0 for a one-shot event. */
        std::uint32_t period = 0;
    };

    /** Names a far event for its whole life, in far_ and after it
     *  moves into the ring. */
    struct Handle
    {
        std::uint32_t gen = 0;
        /** A node index once in the ring, kInFar or kCancelled while
         *  in far_, the next free handle while free. */
        std::uint32_t at = kNil;
    };
    static constexpr std::uint32_t kInFar = kNil - 1;
    static constexpr std::uint32_t kCancelled = kNil - 2;

    struct Bucket
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };

    struct Far
    {
        Tick when;
        std::uint64_t seq; //!< FIFO among far events of one tick
        std::uint32_t handle;
        std::uint32_t period; //!< as Node::period
        Callback cb;
    };

    struct FarLater
    {
        bool
        operator()(const Far &a, const Far &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** Earliest tick in the ring; false when the ring is empty. */
    bool ringNext(Tick &when) const;
    /** Tick of the earliest event; the queue must not be empty. */
    Tick earliest() const;
    std::uint32_t allocNode();
    void freeNode(std::uint32_t index, Node &n);
    std::uint32_t allocHandle();
    void freeHandle(std::uint32_t index);
    void pushBucket(std::uint32_t index, Node &n, Tick when);
    void unlinkBucket(Node &n);
    /** Move every far event due before cursor_ + kRingSize into the
     *  ring, in (when, seq) order. */
    void migrate();
    /** Run the popped recurring event in node @p index, due at
     *  @p when, and link it again unless it was cancelled. */
    void fireRecurring(std::uint32_t index, Tick when, Callback &cb);
    /** Schedule with Node::period @p period (0: one-shot). */
    EventId insert(Tick when, std::uint32_t period, Callback &&cb);
    /** Pop cancelled entries off the top of far_. */
    void dropCancelledFar();
    [[noreturn]] void scheduleBeforeCursor(Tick when) const;

    std::array<Bucket, kRingSize> buckets_{};
    /** Bit b set iff bucket b is non-empty. */
    std::uint64_t occupied_ = 0;
    /** Growth moves nodes and handles, so no `Node &` or
     *  `Handle &` is held across allocNode() or allocHandle(). */
    std::vector<Node> nodes_;
    std::vector<Handle> handles_;
    std::uint32_t freeNode_ = kNil;
    std::uint32_t freeHandle_ = kNil;
    /** Far events own their callbacks, so the memory of a drained
     *  backlog goes back with far_'s capacity. */
    std::vector<Far> far_;
    /** Tick of the last event run (0 after a rebase); the ring
     *  covers [cursor_, cursor_ + kRingSize). */
    Tick cursor_ = 0;
    std::uint64_t farSeq_ = 0;
    std::uint64_t live_ = 0;
    /** Node of the recurring event whose callback runs, or kNil; it
     *  counts as pending for the cursor rule. */
    std::uint32_t running_ = kNil;
    std::uint64_t numExecuted_ = 0;
};

} // namespace sim
} // namespace rmb
