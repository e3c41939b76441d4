/**
 * @file
 * Program executor: interprets a Program's control flow and produces
 * a dynamic Trace of a requested length.
 *
 * The executor holds all mutable behavior state (loop counters,
 * pattern positions, per-branch RNG streams, the call stack), so a
 * Program may be shared among executors and runs are reproducible
 * from (program, seed).
 */

#ifndef XBS_WORKLOAD_EXECUTOR_HH
#define XBS_WORKLOAD_EXECUTOR_HH

#include <memory>
#include <vector>

#include "common/random.hh"
#include "trace/trace.hh"
#include "workload/program.hh"

namespace xbs
{

class Executor
{
  public:
    explicit Executor(std::shared_ptr<const Program> program,
                      uint64_t seed = 0);

    /**
     * Execute and record @p num_instructions dynamic instructions:
     * the same records, and the same state after, as that many calls
     * of step(). A run of Seq instructions is emitted in one loop;
     * only control instructions go through step(). If the program
     * returns from its entry function, execution restarts at the
     * entry (mimicking a run-to-completion loop).
     */
    Trace run(uint64_t num_instructions);

    /** Single-step interface used by tests: next instruction index. */
    int32_t step();

  private:
    bool evalCond(int32_t behavior_id);
    int32_t evalIndirect(int32_t behavior_id);

    struct CondState
    {
        Rng rng{1};
        uint32_t remaining = 0;   ///< Loop: iterations left
        bool primed = false;
        uint32_t patternPos = 0;
    };

    struct IndirectState
    {
        Rng rng{1};
        int32_t lastTarget = kNoTarget;
    };

    std::shared_ptr<const Program> program_;
    std::vector<CondState> condStates_;
    std::vector<IndirectState> indirectStates_;
    std::vector<int32_t> callStack_;
    /** seqRun_[i]: how many Seq instructions start at index i, up to
     *  the next control instruction or the end of the code. */
    std::vector<uint32_t> seqRun_;
    int32_t pc_;
    bool lastTaken_ = false;

  public:
    /** Direction of the most recent conditional branch stepped. */
    bool lastTaken() const { return lastTaken_; }
};

/** Convenience: build, execute, and name a trace in one call. */
Trace makeTrace(std::shared_ptr<const Program> program,
                uint64_t num_instructions, uint64_t seed = 0);

} // namespace xbs

#endif // XBS_WORKLOAD_EXECUTOR_HH
