/**
 * @file
 * Error reporting and status message helpers.
 *
 * Follows the gem5 convention: panic() flags an internal simulator bug
 * and aborts; fatal() flags a user error (bad configuration, invalid
 * arguments) and exits cleanly with an error code; warn() and inform()
 * print status without stopping the simulation.
 */

#pragma once

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>

namespace rmb {

/**
 * Register @p hook to run after a panic message is printed but
 * before abort().  Used by flight recorders (RingBufferSink) to dump
 * post-mortem context when an invariant trips.  Hooks run newest
 * first; a hook that itself panics is not re-entered.
 * @return an id for removePanicHook().
 */
std::uint64_t addPanicHook(std::function<void()> hook);

/** Unregister a hook; unknown ids are ignored (idempotent). */
void removePanicHook(std::uint64_t id);

namespace detail {

/** Terminate after printing a panic (internal bug) message. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Terminate after printing a fatal (user error) message. */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Print a warning message to stderr. */
void warnImpl(const char *file, int line, const std::string &msg);

/** Print an informational message to stdout. */
void informImpl(const std::string &msg);

/** Concatenate a list of streamable values into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

/**
 * rmb_assert's failure path, out of line so that a check on a hot
 * path inlines as one compare and a cold call.
 */
template <typename... Args>
[[noreturn, gnu::cold, gnu::noinline]] void
assertFailed(const char *file, int line, const char *what,
             const Args &...args)
{
    panicImpl(file, line, concat(what, args...));
}

} // namespace detail

} // namespace rmb

/**
 * Report an internal invariant violation (a simulator bug) and abort.
 * Accepts a list of streamable values, e.g. panic("bad level ", l).
 */
#define panic(...) \
    ::rmb::detail::panicImpl(__FILE__, __LINE__, \
                             ::rmb::detail::concat(__VA_ARGS__))

/** Report an unrecoverable user error (bad config) and exit(1). */
#define fatal(...) \
    ::rmb::detail::fatalImpl(__FILE__, __LINE__, \
                             ::rmb::detail::concat(__VA_ARGS__))

/** Report a suspicious-but-survivable condition. */
#define warn(...) \
    ::rmb::detail::warnImpl(__FILE__, __LINE__, \
                            ::rmb::detail::concat(__VA_ARGS__))

/** Report normal operating status. */
#define inform(...) \
    ::rmb::detail::informImpl(::rmb::detail::concat(__VA_ARGS__))

/**
 * Always-on invariant check; unlike assert() it survives NDEBUG and
 * reports through panic() so failures carry file/line context.
 */
#define rmb_assert(cond, ...) \
    do { \
        if (!(cond)) [[unlikely]] { \
            ::rmb::detail::assertFailed( \
                __FILE__, __LINE__, "assertion '" #cond "' failed. " \
                __VA_OPT__(, ) __VA_ARGS__); \
        } \
    } while (0)
