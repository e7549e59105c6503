#include "common/parallel.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace rmb {
namespace common {

namespace {

/** One spin-wait step: a CPU pause hint where the ISA has one. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#else
    std::this_thread::yield();
#endif
}

/** How long an idle worker spins for the next job before it parks.
 *  A sharded hierarchical run issues back-to-back jobs separated by
 *  a short single-threaded barrier; a sweep issues one job per run,
 *  so its workers park almost at once and stay parked. */
constexpr std::chrono::microseconds kSpinBudget{200};

} // namespace

/**
 * Persistent worker pool.  The calling thread is one of the Runner's
 * jobs: the pool holds jobs - 1 worker threads, and forEach claims
 * indices on the caller alongside them.
 *
 * A job is published by bumping `epoch` to an odd value (open) after
 * (fn, count, claim flags) are written; the caller bumps it to the
 * next even value (closed) once every index is claimed.  A worker
 * joins by incrementing `busy` and then re-reading `epoch`: seen
 * open, it claims indices; seen closed, it leaves without touching
 * fn.  The caller returns only when `busy` drops to zero, so fn
 * outlives every call into it.  Idle workers spin on `epoch` for
 * kSpinBudget, then park on `cv`; a publish notifies only when
 * someone is parked.
 */
struct Runner::Pool
{
    explicit Pool(unsigned workers) : slots(workers + 1)
    {
        threads.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            threads.emplace_back([this, w] { workerLoop(w + 1); });
    }

    ~Pool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            shutdown.store(true);
        }
        cv.notify_all();
        for (std::thread &t : threads)
            t.join();
    }

    void
    run(std::size_t count_,
        const std::function<void(std::size_t)> &fn_,
        const std::function<unsigned(std::size_t)> *home_)
    {
        fn = &fn_;
        count = count_;
        home = home_;
        if (claimedCap < count) {
            claimedCap = std::max<std::size_t>(count, 2 * claimedCap);
            claimed = std::make_unique<std::atomic<bool>[]>(claimedCap);
        }
        for (std::size_t i = 0; i < count; ++i)
            claimed[i].store(false, std::memory_order_relaxed);
        firstError = nullptr;
        const std::uint64_t open = epoch.load() + 1;
        epoch.store(open);
        if (parked.load() > 0) {
            std::lock_guard<std::mutex> lock(mutex);
            cv.notify_all();
        }
        claim(0);
        epoch.store(open + 1);
        for (unsigned spins = 0; busy.load() != 0; ++spins) {
            if (spins < 4096)
                cpuRelax();
            else
                std::this_thread::yield();
        }
        fn = nullptr;
        home = nullptr;
        if (firstError)
            std::rethrow_exception(firstError);
    }

    /** Claim and run indices of the open job, as worker @p self:
     *  its own indices first, then any the others have not claimed
     *  yet. */
    void
    claim(unsigned self)
    {
        for (int pass = 0; pass < 2; ++pass) {
            for (std::size_t i = 0; i < count; ++i) {
                if (pass == 0 && homeOf(i) % slots != self)
                    continue;
                if (!claimed[i].load(std::memory_order_relaxed) &&
                    !claimed[i].exchange(true))
                    call(i);
            }
        }
    }

    std::size_t
    homeOf(std::size_t i) const
    {
        return home ? (*home)(i) : i;
    }

    void
    call(std::size_t i)
    {
        try {
            (*fn)(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex);
            if (!firstError)
                firstError = std::current_exception();
        }
    }

    /** Spin, then park, until the epoch moves past @p seen or the
     *  pool shuts down; returns the epoch observed. */
    std::uint64_t
    awaitEpoch(std::uint64_t seen)
    {
        const auto deadline =
            std::chrono::steady_clock::now() + kSpinBudget;
        for (unsigned spins = 1;; ++spins) {
            const std::uint64_t e = epoch.load();
            if (e != seen || shutdown.load())
                return e;
            if (spins % 64 == 0 &&
                std::chrono::steady_clock::now() >= deadline)
                break;
            cpuRelax();
        }
        std::unique_lock<std::mutex> lock(mutex);
        parked.fetch_add(1);
        cv.wait(lock, [&] {
            return epoch.load() != seen || shutdown.load();
        });
        parked.fetch_sub(1);
        return epoch.load();
    }

    void
    workerLoop(unsigned self)
    {
        std::uint64_t seen = epoch.load();
        while (true) {
            seen = awaitEpoch(seen);
            if (shutdown.load())
                return;
            if (seen % 2 == 0)
                continue; // a job came and went while we slept
            busy.fetch_add(1);
            // Re-read after joining: the caller may have closed this
            // job (or opened a later one) in between.
            seen = epoch.load();
            if (seen % 2 == 1)
                claim(self);
            busy.fetch_sub(1);
        }
    }

    std::mutex mutex; //!< guards firstError and the park handshake
    std::condition_variable cv;
    std::vector<std::thread> threads;
    const unsigned slots; //!< workers, the caller (worker 0) included
    const std::function<void(std::size_t)> *fn = nullptr;
    const std::function<unsigned(std::size_t)> *home = nullptr;
    std::size_t count = 0;
    /** Per-index claim flags of the current job. */
    std::unique_ptr<std::atomic<bool>[]> claimed;
    std::size_t claimedCap = 0;
    std::atomic<std::uint64_t> epoch{0}; //!< odd: a job is open
    std::atomic<unsigned> busy{0};       //!< workers inside a job
    std::atomic<unsigned> parked{0};     //!< workers asleep on cv
    std::atomic<bool> shutdown{false};
    std::exception_ptr firstError;
};

Runner::Runner(unsigned jobs)
    : jobs_(jobs == 0 ? defaultJobs() : jobs)
{
}

Runner::~Runner() = default;
Runner::Runner(Runner &&) noexcept = default;
Runner &Runner::operator=(Runner &&) noexcept = default;

unsigned
Runner::defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

void
Runner::forEach(std::size_t count,
                const std::function<void(std::size_t)> &fn) const
{
    run(count, fn, nullptr);
}

void
Runner::forEach(std::size_t count,
                const std::function<void(std::size_t)> &fn,
                const std::function<unsigned(std::size_t)> &home) const
{
    run(count, fn, &home);
}

void
Runner::run(std::size_t count,
            const std::function<void(std::size_t)> &fn,
            const std::function<unsigned(std::size_t)> *home) const
{
    if (jobs_ <= 1 || count <= 1) {
        std::exception_ptr first;
        for (std::size_t i = 0; i < count; ++i) {
            try {
                fn(i);
            } catch (...) {
                if (!first)
                    first = std::current_exception();
            }
        }
        if (first)
            std::rethrow_exception(first);
        return;
    }
    if (!pool_)
        pool_ = std::make_unique<Pool>(jobs_ - 1);
    pool_->run(count, fn, home);
}

} // namespace common
} // namespace rmb
