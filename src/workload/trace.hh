/**
 * @file
 * Message-trace recording and replay.
 *
 * A trace is a time-ordered list of injection requests.  Traces make
 * experiments portable (the same communication pattern can be
 * replayed against every network) and reproducible outside the
 * RNG-coupled generators.  The on-disk format is a plain text file:
 *
 *     # rmbtrace v1
 *     <tick> <src> <dst> <payload_flits>
 *     ...
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "netbase/network.hh"
#include "sim/random.hh"
#include "workload/traffic.hh"

namespace rmb {
namespace workload {

/** One injection request. */
struct TraceEvent
{
    sim::Tick time = 0;
    net::NodeId src = 0;
    net::NodeId dst = 0;
    std::uint32_t payloadFlits = 0;

    bool
    operator==(const TraceEvent &o) const
    {
        return time == o.time && src == o.src && dst == o.dst &&
               payloadFlits == o.payloadFlits;
    }
};

/** A whole trace, sorted by time. */
using Trace = std::vector<TraceEvent>;

/**
 * Synthesize a trace: every node generates messages as a Bernoulli
 * process of @p rate per tick over @p duration ticks, destinations
 * drawn from @p pattern.  The result is time-sorted.
 */
Trace generateTrace(TrafficPattern &pattern, double rate,
                    std::uint32_t payload_flits, sim::Tick duration,
                    sim::Random &rng);

/** Serialize to the text format above. */
void writeTrace(std::ostream &os, const Trace &trace);

/**
 * Parse a trace; fatal() on malformed input (user error), naming the
 * line - including an event whose src or dst is not below
 * @p num_nodes, or that sends to itself, which the network it is
 * replayed on could not accept.  Events are re-sorted by time if
 * needed.
 */
Trace readTrace(std::istream &is,
                net::NodeId num_nodes = UINT32_MAX);

/** Result of replaying a trace. */
struct ReplayResult
{
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t failed = 0;
    sim::Tick makespan = 0;   //!< first injection -> last delivery
    double meanLatency = 0.0;
    double p95Latency = 0.0;
};

/**
 * Replay @p trace against @p network: each event's send() is issued
 * at its recorded tick (relative to the current simulated time),
 * then the simulator runs until quiescent or @p drain ticks past the
 * last event.
 */
ReplayResult replayTrace(net::Network &network, const Trace &trace,
                         sim::Tick drain = 1'000'000);

} // namespace workload
} // namespace rmb
