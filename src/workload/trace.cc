#include "workload/trace.hh"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/logging.hh"
#include "sim/stats.hh"

namespace rmb {
namespace workload {

Trace
generateTrace(TrafficPattern &pattern, double rate,
              std::uint32_t payload_flits, sim::Tick duration,
              sim::Random &rng)
{
    rmb_assert(rate > 0.0 && rate <= 1.0,
               "trace rate must be in (0, 1]");
    Trace trace;
    // split(node) rather than fork(): each node's event stream is a
    // pure function of (caller seed, node id), so traces for a
    // shared prefix of nodes agree across different network sizes.
    for (net::NodeId node = 0; node < pattern.numNodes(); ++node) {
        sim::Random node_rng = rng.split(node);
        sim::Tick t = node_rng.geometric(rate) + 1;
        while (t < duration) {
            trace.push_back(TraceEvent{
                t, node, pattern.pick(node, node_rng),
                payload_flits});
            t += node_rng.geometric(rate) + 1;
        }
    }
    std::stable_sort(trace.begin(), trace.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.time < b.time;
                     });
    return trace;
}

void
writeTrace(std::ostream &os, const Trace &trace)
{
    os << "# rmbtrace v1\n";
    for (const TraceEvent &e : trace) {
        os << e.time << ' ' << e.src << ' ' << e.dst << ' '
           << e.payloadFlits << '\n';
    }
}

Trace
readTrace(std::istream &is, net::NodeId num_nodes)
{
    Trace trace;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        TraceEvent e;
        if (!(fields >> e.time >> e.src >> e.dst >>
              e.payloadFlits)) {
            fatal("trace line ", line_no, " malformed: '", line,
                  "'");
        }
        if (e.src >= num_nodes || e.dst >= num_nodes) {
            fatal("trace line ", line_no, ": node ",
                  std::max(e.src, e.dst), " is out of range for a ",
                  num_nodes, "-node network");
        }
        if (e.src == e.dst)
            fatal("trace line ", line_no, ": node ", e.src,
                  " sends to itself");
        trace.push_back(e);
    }
    std::stable_sort(trace.begin(), trace.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.time < b.time;
                     });
    return trace;
}

ReplayResult
replayTrace(net::Network &network, const Trace &trace,
            sim::Tick drain)
{
    ReplayResult r;
    if (trace.empty())
        return r;

    auto &simulator = network.simulator();
    const sim::Tick base = simulator.now();
    std::vector<net::MessageId> ids;
    ids.reserve(trace.size());

    // Issue the sends in trace order, advancing simulated time to
    // each event's (base-relative) timestamp.
    for (const TraceEvent &e : trace) {
        rmb_assert(e.src < network.numNodes() &&
                       e.dst < network.numNodes(),
                   "trace node out of range for this network");
        simulator.runUntil(base + e.time);
        ids.push_back(network.send(e.src, e.dst, e.payloadFlits));
    }
    const sim::Tick last_event = base + trace.back().time;
    while (!network.quiescent() && !simulator.idle() &&
           simulator.now() < last_event + drain) {
        simulator.run(1024);
    }

    sim::SampleStat latency;
    sim::Tick last_delivery = base;
    for (const net::MessageId id : ids) {
        ++r.injected;
        const net::Message &m = network.message(id);
        if (m.state == net::MessageState::Failed) {
            ++r.failed;
            continue;
        }
        if (m.state != net::MessageState::Delivered)
            continue;
        ++r.delivered;
        latency.add(static_cast<double>(m.totalLatency()));
        last_delivery = std::max(last_delivery, m.delivered);
    }
    r.makespan = last_delivery - base;
    r.meanLatency = latency.count() ? latency.mean() : 0.0;
    r.p95Latency = latency.count() ? latency.percentile(95) : 0.0;
    return r;
}

} // namespace workload
} // namespace rmb
