/**
 * @file
 * Parallel execution of independent grid points.
 *
 * Runner is a load-balancing thread pool: each index has a home
 * worker, and a worker that has run its own indices takes over any
 * another worker has not claimed yet, so long points never
 * serialise behind short ones (the "work stealing" that matters for
 * a grid of identical tasks with wildly different run times, e.g. a
 * saturation sweep where the loaded points take 100x longer than
 * the idle ones).
 *
 * The pool knows nothing about simulations; it runs fn(i) for every
 * i in [0, count).  Determinism is the caller's contract: each index
 * must touch only its own state (own Simulator, own RNG substream
 * via sim::Random::split, own results slot), which is exactly how
 * exp::runSweep(), the converted benches and the hier shard executor
 * use it - so the assembled output is byte-identical for every job
 * count.
 *
 * It lives in `common` (not `exp`) because both the experiment
 * engine *and* rmb's hierarchical backend shard over it; hosting it
 * any higher would put a back-edge in the module DAG that rmblint's
 * layering check (docs/LINT.md) enforces.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>

namespace rmb {
namespace common {

/**
 * Thread pool over an index range.
 *
 * The calling thread is one of the `jobs` workers: forEach claims
 * indices on it alongside jobs - 1 pool threads, so a call never
 * sleeps its caller while others work.  The pool threads are created
 * lazily on the first parallel forEach and persist for the Runner's
 * lifetime.  Between calls an idle worker spins for a short bounded
 * time, then parks on a condition variable; a new call wakes only
 * parked workers.  A sweep pays thread-creation cost once per run
 * either way; a sharded hierarchical simulation calls forEach once
 * per lookahead window - thousands of times, back to back - and
 * must neither spawn threads nor pay a park/wake round trip each
 * time.
 */
class Runner
{
  public:
    /** @param jobs worker threads; 0 means defaultJobs(). */
    explicit Runner(unsigned jobs = 1);
    ~Runner();

    Runner(Runner &&) noexcept;
    Runner &operator=(Runner &&) noexcept;
    Runner(const Runner &) = delete;
    Runner &operator=(const Runner &) = delete;

    /** std::thread::hardware_concurrency, floored at 1. */
    static unsigned defaultJobs();

    unsigned jobs() const { return jobs_; }

    /**
     * Run fn(i) exactly once for every i in [0, count), spread
     * over up to jobs workers, the calling thread among them; with
     * one job (or one index) everything runs inline on the calling
     * thread.  Index i's home worker is i % jobs (worker 0 is the
     * calling thread).  Returns when all indices completed.  If fn
     * throws - on any thread - the other indices still run, and the
     * first exception is rethrown here after the pool drains
     * (callers that need per-point failure capture wrap fn -
     * runSweep() records failures in the point result instead).
     * Not reentrant: one forEach at a time per Runner.
     */
    void forEach(std::size_t count,
                 const std::function<void(std::size_t)> &fn) const;

    /**
     * forEach with index i's home worker home(i) % jobs.  A caller
     * that calls forEach back to back over the same items, whatever
     * their positions in each call, keeps each item's state in one
     * core's cache.  Which thread runs an index never changes what
     * it computes.
     */
    void forEach(std::size_t count,
                 const std::function<void(std::size_t)> &fn,
                 const std::function<unsigned(std::size_t)> &home)
        const;

  private:
    void run(std::size_t count,
             const std::function<void(std::size_t)> &fn,
             const std::function<unsigned(std::size_t)> *home) const;

    struct Pool;

    unsigned jobs_;
    /** Lazily created persistent worker pool (parallel calls only). */
    mutable std::unique_ptr<Pool> pool_;
};

} // namespace common
} // namespace rmb
