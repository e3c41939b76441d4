/**
 * @file
 * Structured random program synthesis.
 *
 * ProgramBuilder emits a reducible CFG out of nested structured items
 * (straight-line chains, if/else diamonds with fall-through joins,
 * natural loops, indirect-jump switches, and call sites), wired into
 * a DAG call graph (callee index > caller index, so no recursion and
 * guaranteed termination). The fall-through join points are what give
 * the trace cache its redundancy and the XBC its multiple entry
 * points, exactly as in the paper's motivating example.
 */

#ifndef XBS_WORKLOAD_BUILDER_HH
#define XBS_WORKLOAD_BUILDER_HH

#include <memory>

#include "common/random.hh"
#include "workload/cfg.hh"
#include "workload/profile.hh"
#include "workload/program.hh"

namespace xbs
{

class ProgramBuilder
{
  public:
    explicit ProgramBuilder(const WorkloadProfile &profile);

    /** Synthesize and link a program. Deterministic in the profile. */
    std::shared_ptr<const Program> build();

    /** Access the intermediate CFG (valid after build()). */
    const CfgProgram &cfg() const { return cfg_; }

  private:
    /** Append body instructions to the (open) last block of @p fn. */
    void fillBody(CfgFunction &fn, double mean_scale = 1.0);

    /** Make sure the last block of @p fn is open (no terminator). */
    CfgBlock &openBlock(CfgFunction &fn);

    /** Emit a sequence of items into @p fn. */
    void genItems(CfgFunction &fn, int func_id, double budget,
                  unsigned depth, double call_boost = 1.0);

    void genIfElse(CfgFunction &fn, int func_id, unsigned depth);
    void genLoop(CfgFunction &fn, int func_id, unsigned depth);
    void genSwitch(CfgFunction &fn, int func_id);
    void genCall(CfgFunction &fn, int func_id);

    /** Draw behavior for an if/else conditional branch. */
    CondBehavior drawCondBehavior();

    /** Draw a loop trip count (short, or long and promotable). */
    uint32_t drawLoopTrip();

    /**
     * Draw a callee for a call in @p func_id: popularity-weighted
     * over later functions, rejecting candidates whose estimated
     * dynamic cost would exceed the caller's remaining budget.
     * @return -1 when no affordable callee exists.
     */
    int drawCallee(int func_id);

    /** Current execution-probability/iteration multiplier. */
    double multiplier() const;

    /** Number of enclosing loops in the multiplier stack. */
    unsigned loopDepth() const;

    uint8_t drawInstLen();
    uint8_t drawInstUops();
    uint8_t drawBranchLen();

    WorkloadProfile profile_;
    Rng rng_;
    BoundedGeometric instLen_;   ///< drawInstLen's distribution
    BoundedGeometric instUops_;  ///< drawInstUops's distribution
    CfgProgram cfg_;
    uint64_t behaviorSeedCounter_ = 0x51ED2700;

    /// @{ Per-build dynamic-cost accounting.
    std::vector<double> estCost_;   ///< per-function invocation cost
    std::vector<double> popCum_;    ///< cumulative popularity weights
    std::vector<double> multStack_; ///< enclosing loop trips/arm probs
    double curCost_ = 0.0;          ///< cost of function under build
    double budget_ = 1e18;          ///< its budget
    double perSiteCap_ = 1e18;      ///< per-call-site cost cap
    /// @}
};

/** Convenience: build a program straight from a profile. */
std::shared_ptr<const Program>
buildProgram(const WorkloadProfile &profile);

} // namespace xbs

#endif // XBS_WORKLOAD_BUILDER_HH
