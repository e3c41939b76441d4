/**
 * @file
 * Per-frontend root-cause attribution recorder.
 *
 * The recorder is charged at exactly the sites where the headline
 * metrics are charged, so the two sum invariants hold by
 * construction:
 *
 *  - chargeBuildUops(n) is called alongside every
 *    `metrics.buildUops += n`, charging the *current* uop cause
 *    (sum over Cause of attrib.uops.* == frontend.buildUops);
 *  - chargeSilentCycle() is called alongside every
 *    `++metrics.stallCycles`, popping one unit from the FIFO of
 *    pending stall reasons (sum of attrib.cycles.* ==
 *    frontend.stallCycles).
 *
 * Uop causes use sticky "disruption" semantics: components note the
 * precise event that invalidated the supply path the moment it
 * happens (noteDisruption), a later structure hit clears it
 * (clearDisruption), and the mode switch into build consumes it
 * (enterBuild) — falling back to the caller's structural cause when
 * no disruption was recorded. This charges a whole build episode to
 * the root cause that entered it, matching the decomposition used by
 * the fetch-directed-prefetching literature.
 *
 * Stall causes use a FIFO of pending units (noteStall) so a stall
 * counter fed from several sources (set search + mispredict penalty
 * in the same cycle) still charges each silent cycle exactly once,
 * in order. Units that never become silent cycles (e.g. a penalty
 * cut short by end-of-trace) are discarded at end of run.
 */

#ifndef XBS_ATTRIB_RECORDER_HH
#define XBS_ATTRIB_RECORDER_HH

#include <array>
#include <cstdint>
#include <deque>
#include <memory>

#include "attrib/taxonomy.hh"
#include "common/stats.hh"

namespace xbs
{

class JsonWriter;
class ArrayAccounting;
class CkptSink;
class CkptSource;

class AttribRecorder : public StatGroup
{
  public:
    explicit AttribRecorder(StatGroup *parent);

    /// @{ Uop-cause (build-entry) attribution.

    /** Record the precise event that broke the delivery path. The
     *  cause stays pending until consumed by enterBuild() or cleared
     *  by a later structure hit. */
    void noteDisruption(Cause cause);

    /** A structure hit resumed normal delivery: an earlier
     *  disruption did not cause a build entry after all. */
    void clearDisruption();

    /** Mode switch into build: latch the cause every subsequent
     *  build uop will be charged to — the pending disruption if one
     *  is fresh, otherwise @p fallback. */
    void enterBuild(Cause fallback);

    /** Charge @p n build uops to the latched cause. Call alongside
     *  every `metrics.buildUops += n`. */
    void chargeBuildUops(uint64_t n);

    /// @}
    /// @{ Silent-cycle attribution.

    /** Enqueue @p n pending stall units for @p cause (call where the
     *  stall counter is loaded, e.g. a mispredict penalty). */
    void noteStall(Cause cause, uint64_t n);

    /** Charge one fetch-silent cycle: pops the oldest pending stall
     *  unit (Unattributed if none). Call alongside every
     *  `++metrics.stallCycles`. */
    void chargeSilentCycle();

    /** Bulk variant for frontends that add stall cycles in one shot
     *  (the IC baseline). */
    void chargeSilentCycles(uint64_t n);

    /** Build-mode residency: call alongside `++metrics.buildCycles`. */
    void chargeBuildCycle() { ++buildResidency; }

    /// @}

    /** Return-stack popped empty while predicting a return. */
    void noteRsbUnderflow() { ++rsbUnderflows; }

    uint64_t uopCount(Cause c) const { return uops_[idx(c)]->value(); }
    uint64_t cycleCount(Cause c) const
    {
        return cycles_[idx(c)]->value();
    }
    uint64_t chargedUops() const;
    uint64_t chargedCycles() const;

    Cause currentUopCause() const { return latched_; }

    /**
     * Emit the "attrib" JSON member: per-cause uop and cycle counts
     * plus the metric totals they must sum to.
     *
     * @param build_uops   frontend.buildUops (uop-sum target)
     * @param stall_cycles frontend.stallCycles (cycle-sum target)
     * @param array        XBC structure accounting, or nullptr
     */
    void writeJson(JsonWriter &json, uint64_t build_uops,
                   uint64_t stall_cycles,
                   const ArrayAccounting *array = nullptr) const;

    /// @{ Warm-state checkpointing (src/ckpt): the non-stat recorder
    ///    state (the stat tree is serialized by the generic walk).
    void ckptSave(CkptSink &sink) const;
    void ckptLoad(CkptSource &src);
    /// @}

    ScalarStat buildResidency;
    ScalarStat bankConflictDefers;
    ScalarStat rsbUnderflows;

  private:
    static std::size_t idx(Cause c) { return (std::size_t)c; }

    StatGroup uopGroup_;
    StatGroup cycleGroup_;
    std::array<std::unique_ptr<ScalarStat>, kNumCauses> uops_;
    std::array<std::unique_ptr<ScalarStat>, kNumCauses> cycles_;

    Cause pending_ = Cause::ColdStart;
    bool fresh_ = true; ///< pending_ not yet consumed/cleared
    Cause latched_ = Cause::Unattributed;
    std::deque<Cause> pendingStall_;
};

} // namespace xbs

#endif // XBS_ATTRIB_RECORDER_HH
