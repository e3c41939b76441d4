/**
 * @file
 * Host-time self-profiling: where does the simulator spend
 * *wall-clock* time? The simulated-cycle observability layer
 * (probe/interval stats) answers "what did the modeled machine do";
 * this layer answers "why is the simulation itself fast or slow",
 * which is what the ROADMAP's "as fast as the hardware allows" goal
 * needs to be measurable.
 *
 * A PhaseProfiler holds a small static tree of named phases (run /
 * fetch / build / array / predict / trace-decode). Hot-path code
 * opens a phase with an RAII ScopedPhase; the profiler reads the
 * monotonic clock for only one in every 2^sampleShift entries of each
 * phase and scales the sampled time by the call count, so per-cycle
 * phases cost one counter increment and a mask in the common case.
 * That keeps the measured overhead of `xbsim --profile` within the
 * <=2% budget asserted by tests/test_prof.cc.
 *
 * Periodic sampling can alias with periodic simulator behavior; for
 * the coarse phase attribution this layer provides (tens of percent,
 * not microseconds) that bias is negligible, and the estimate for a
 * phase converges as calls accumulate.
 */

#ifndef XBS_PROF_PHASE_PROFILER_HH
#define XBS_PROF_PHASE_PROFILER_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"

namespace xbs
{

class PhaseProfiler
{
  public:
    /** Sentinel phase id: a ScopedPhase on it is a no-op. */
    static constexpr unsigned kNoPhase = ~0u;

    /** @param sample_shift time 1 of every 2^shift calls per phase */
    explicit PhaseProfiler(unsigned sample_shift = 6)
        : sampleMask_((1u << sample_shift) - 1)
    {
    }

    PhaseProfiler(const PhaseProfiler &) = delete;
    PhaseProfiler &operator=(const PhaseProfiler &) = delete;

    /**
     * Register a phase under @p parent (kNoPhase: a root). Phases
     * are identified by (name, parent), so a second definePhase with
     * the same coordinates returns the existing id — frontends and
     * their components can attach independently without colliding.
     */
    unsigned definePhase(const std::string &name,
                         unsigned parent = kNoPhase);

    /** One profiled phase's accumulated state. */
    struct Phase
    {
        std::string name;
        unsigned parent = kNoPhase;
        uint64_t calls = 0;         ///< every entry, sampled or not
        uint64_t sampledCalls = 0;  ///< entries that were timed
        uint64_t sampledNs = 0;     ///< clock time of timed entries
    };

    const std::vector<Phase> &phases() const { return phases_; }

    /** Scaled estimate: sampledNs * calls / sampledCalls. */
    uint64_t estimatedNs(unsigned id) const;

    /** Sum of root-phase estimates (the profiled total). */
    uint64_t totalEstimatedNs() const;

    /**
     * Enter accounting for phase @p id; returns true when this entry
     * should be timed (the caller then reports the duration through
     * commit()). Hot path: one increment + one mask test.
     */
    bool
    arm(unsigned id)
    {
        Phase &p = phases_[id];
        return (p.calls++ & (uint64_t)sampleMask_) == 0;
    }

    /** Record one timed entry of @p ns on phase @p id. */
    void
    commit(unsigned id, uint64_t ns)
    {
        Phase &p = phases_[id];
        ++p.sampledCalls;
        p.sampledNs += ns;
    }

    /**
     * Emit as a JSON array member @p key: one object per phase with
     * name, parent name, calls, and the scaled time estimate.
     */
    void writeJson(JsonWriter &jw,
                   const std::string &key = "phases") const;

    /** Indented text tree: phase, calls, est ms, share of root. */
    std::string render() const;

  private:
    unsigned depthOf(unsigned id) const;

    unsigned sampleMask_;
    std::vector<Phase> phases_;
};

/**
 * RAII scope for one phase entry. Null profiler or kNoPhase id makes
 * construction and destruction each a single branch, so instrumented
 * code pays nothing when profiling is off.
 */
class ScopedPhase
{
  public:
    ScopedPhase(PhaseProfiler *prof, unsigned id)
    {
        if (prof && id != PhaseProfiler::kNoPhase && prof->arm(id)) {
            prof_ = prof;
            id_ = id;
            start_ = std::chrono::steady_clock::now();
        }
    }

    ~ScopedPhase()
    {
        if (prof_) {
            auto ns = std::chrono::duration_cast<
                          std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
            prof_->commit(id_, (uint64_t)ns);
        }
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    PhaseProfiler *prof_ = nullptr;
    unsigned id_ = 0;
    std::chrono::steady_clock::time_point start_;
};

} // namespace xbs

#endif // XBS_PROF_PHASE_PROFILER_HH
