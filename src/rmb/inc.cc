#include "rmb/inc.hh"

#include "common/logging.hh"
#include "rmb/network.hh"

namespace rmb {
namespace core {

void
Inc::start(RmbNetwork &network)
{
    rmb_assert(!started_, "Inc::start called twice");
    started_ = true;
    // Desynchronize the first ticks so INC clocks have arbitrary
    // phase, as the paper's asynchronous-clock assumption demands.
    const sim::Tick offset =
        network.rng().uniformRange(1, period_);
    network.simulator().schedule(offset, [this, &network] {
        // The construction-time state is the first Moving phase.
        startMovingPhase(network);
        tick(network);
        runClock(network);
    });
}

void
Inc::runClock(RmbNetwork &network)
{
    // Either way the next tick is the last event this callback
    // schedules, at now + period: the same FIFO slot every time.
    if (period_ <= sim::EventQueue::kMaxPeriod) {
        network.simulator().scheduleEvery(
            period_, period_, [this, &network] { tick(network); });
        return;
    }
    network.simulator().schedule(period_, [this, &network] {
        tick(network);
        runClock(network);
    });
}

void
Inc::tick(RmbNetwork &network)
{
    const Inc &left = network.leftOf(index_);
    const Inc &right = network.rightOf(index_);
    const std::uint64_t cycles_before = fsm_.cycleCount();
    const bool entered_moving =
        fsm_.step(left.fsm().od(), left.fsm().oc(),
                  right.fsm().od(), right.fsm().oc());
    if (fsm_.cycleCount() != cycles_before)
        network.noteCycleFlip(index_);
    if (entered_moving)
        startMovingPhase(network);
}

void
Inc::startMovingPhase(RmbNetwork &network)
{
    if (!network.config().enableCompaction) {
        fsm_.setMovesDone();
        return;
    }
    const int parity = fsm_.consideredParity(index_);
    rmb_assert(moves_.empty(), "INC ", index_,
               " entered Moving before its last break step");
    network.makeEligibleMoves(index_, parity, moves_);
    if (moves_.empty()) {
        fsm_.setMovesDone();
        return;
    }
    // Break the old connections half a local period after making the
    // new ones (make-before-break, Figure 4).
    network.simulator().schedule(period_ / 2, [this, &network] {
        network.breakMoves(moves_);
        moves_.clear();
        fsm_.setMovesDone();
    });
}

} // namespace core
} // namespace rmb
