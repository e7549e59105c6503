/**
 * @file
 * The odd/even cycle controller of one INC (paper section 2.5).
 *
 * Each INC alternates between odd and even compaction cycles using a
 * purely local four-phase handshake with its two ring neighbours.
 * The paper expresses it as two flags per INC,
 *
 *   OD - "own datapaths have switched" (this cycle's moves are done)
 *   OC - "own cycle has changed"
 *
 * plus each neighbour's view of them (LD/LC from the left, RD/RC from
 * the right), an internal ID signal ("all datapath switches
 * complete"), and five rules (section 2.5 / Figure 10):
 *
 *   1. at reset OD = OC = 0
 *   2. OD := 1  if ID = 1 and LC = 0 and RC = 0
 *   3. OC := 1  if OD = 1 and LD = 1 and RD = 1
 *   4. OD := 0  if OD = 1 and LC = 1 and RC = 1
 *   5. OC := 0  if OC = 1 and LD = 0 and RD = 0
 *
 * (The body text of the paper prints rule 3 as "OC = 1 if OD = 1 and
 * LC = 0 and RC = 0", but that makes OC rise in the same instant as
 * OD regardless of the neighbours; Figure 10's version - shown above -
 * is the one that actually synchronizes, so we implement that and
 * flag the discrepancy here.)
 *
 * The FSM guarantees (paper Lemma 1, checked by our property tests)
 * that neighbouring INCs' completed-cycle counts never differ by more
 * than one.
 */

#pragma once

#include <cstdint>

namespace rmb {
namespace core {

/** The four waiting states between datapath-switching phases. */
enum class CyclePhase : std::uint8_t
{
    Moving,             //!< executing this cycle's datapath moves
    WaitNeighborsDone,  //!< OD=1, waiting for LD and RD
    WaitNeighborsCycle, //!< OC=1, waiting for LC and RC
    WaitNeighborsClear, //!< OD=0, waiting for LD and RD to clear
};

/** OD as a pure function of the phase (high between rules 2 and 4). */
inline bool
cycleOd(CyclePhase p)
{
    return p == CyclePhase::WaitNeighborsDone ||
           p == CyclePhase::WaitNeighborsCycle;
}

/** OC as a pure function of the phase (high between rules 3 and 5). */
inline bool
cycleOc(CyclePhase p)
{
    return p == CyclePhase::WaitNeighborsCycle ||
           p == CyclePhase::WaitNeighborsClear;
}

/**
 * Which reading of the section-2.5 rules to apply.  The simulator
 * always runs Figure10; the other variants exist so the model
 * checker (tools/rmbcheck --mutate) can prove the discrepancies
 * documented above actually break the protocol.
 */
enum class CycleRuleVariant : std::uint8_t
{
    /** Figure 10's rule 3: OC rises only once LD = RD = 1. */
    Figure10,
    /**
     * The body text's rule 3: OC rises as soon as OD = 1 and
     * LC = RC = 0, i.e. instantly after rule 2 and regardless of the
     * neighbours' datapath progress.
     */
    OcRuleBodyText,
    /**
     * Rules 4 and 5 without their neighbour gates (OD and OC fall
     * unconditionally).  Not a reading of the paper - a deliberately
     * broken variant that lets one INC sprint ahead of a slow
     * neighbour, violating Lemma 1's skew bound.
     */
    NoHandshakeGates,
};

/** Outcome of one pure rule evaluation (see stepCycle). */
struct CycleStep
{
    CyclePhase phase;   //!< next phase
    bool enteredMoving; //!< rule 5 fired: a new Moving phase begins
    bool cycleFlipped;  //!< rule 3 fired: the completed-cycle count
                        //!< increments
};

/**
 * One side-effect-free evaluation of the section-2.5 rules: given
 * the current phase, the internal ID signal and the neighbour flags,
 * return the successor phase and what happened.  This is the single
 * source of truth for the rules - CycleFsm::step drives it for the
 * simulator, and the model checker (src/check/) drives it directly
 * to enumerate every reachable state of a ring of these FSMs.
 */
inline CycleStep
stepCycle(CyclePhase phase, bool id, bool ld, bool lc, bool rd,
          bool rc,
          CycleRuleVariant variant = CycleRuleVariant::Figure10)
{
    CycleStep r{phase, false, false};
    switch (phase) {
      case CyclePhase::Moving:
        // Rule 2: OD := 1 if ID and both neighbour cycles are clear.
        if (id && !lc && !rc)
            r.phase = CyclePhase::WaitNeighborsDone;
        return r;

      case CyclePhase::WaitNeighborsDone:
        // Rule 3 (Figure 10): OC := 1 once both neighbours report
        // their datapath switches complete; the local cycle flips.
        // The body-text variant fires on LC = RC = 0 instead, i.e.
        // immediately after rule 2 - rmbcheck proves that reading
        // deadlocks the ring.
        if (variant == CycleRuleVariant::OcRuleBodyText
                ? (!lc && !rc)
                : (ld && rd)) {
            r.phase = CyclePhase::WaitNeighborsCycle;
            r.cycleFlipped = true;
        }
        return r;

      case CyclePhase::WaitNeighborsCycle:
        // Rule 4: OD := 0 once both neighbours flipped their cycles.
        if (variant == CycleRuleVariant::NoHandshakeGates ||
            (lc && rc)) {
            r.phase = CyclePhase::WaitNeighborsClear;
        }
        return r;

      case CyclePhase::WaitNeighborsClear:
        // Rule 5: OC := 0 once both neighbours cleared OD; the next
        // Moving phase begins.
        if (variant == CycleRuleVariant::NoHandshakeGates ||
            (!ld && !rd)) {
            r.phase = CyclePhase::Moving;
            r.enteredMoving = true;
        }
        return r;
    }
    return r;
}

/**
 * Pure state machine: the owner (the Inc) feeds it neighbour flags on
 * every local clock tick and is told when a new Moving phase begins.
 */
class CycleFsm
{
  public:
    bool od() const { return cycleOd(phase_); }
    bool oc() const { return cycleOc(phase_); }
    CyclePhase phase() const { return phase_; }

    /** Number of completed odd/even cycles. */
    std::uint64_t cycleCount() const { return cycleCount_; }

    /**
     * Parity of the bus levels this INC may move during the current
     * Moving phase, per section 2.4: an even INC moves even levels in
     * even cycles, an odd INC moves even levels in odd cycles.
     * @param inc_index this INC's position on the ring.
     */
    int
    consideredParity(std::uint32_t inc_index) const
    {
        return static_cast<int>((inc_index + cycleCount_) % 2);
    }

    /** Assert the internal ID signal: this cycle's moves are done. */
    void setMovesDone() { id_ = true; }

    /** True while the FSM is in Moving and moves are not yet done. */
    bool
    moving() const
    {
        return phase_ == CyclePhase::Moving && !id_;
    }

    /**
     * Evaluate the rules against the current neighbour flags.
     * @param ld left neighbour's OD   @param lc left neighbour's OC
     * @param rd right neighbour's OD  @param rc right neighbour's OC
     * @retval true if a new Moving phase just began (the caller
     *         should plan and execute this cycle's datapath moves,
     *         then call setMovesDone()).
     */
    bool
    step(bool ld, bool lc, bool rd, bool rc)
    {
        const CycleStep r = stepCycle(phase_, id_, ld, lc, rd, rc);
        phase_ = r.phase;
        if (r.cycleFlipped)
            ++cycleCount_;
        if (r.enteredMoving)
            id_ = false;
        return r.enteredMoving;
    }

  private:
    CyclePhase phase_ = CyclePhase::Moving;
    bool id_ = false;
    std::uint64_t cycleCount_ = 0;
};

} // namespace core
} // namespace rmb
