/**
 * @file
 * Suite runner: executes labeled frontend configurations over the
 * 21-workload catalog, workload-outer so only one trace is resident
 * at a time, and aggregates results per suite.
 */

#ifndef XBS_SIM_RUNNER_HH
#define XBS_SIM_RUNNER_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/config.hh"

namespace xbs
{

/** One (workload x configuration) measurement. */
struct RunResult
{
    std::string label;      ///< configuration label
    std::string workload;
    std::string suite;

    double bandwidth = 0.0;      ///< delivery uops/cycle (Figure 8)
    double missRate = 0.0;       ///< fraction of uops from the IC
    double redundancy = 1.0;     ///< resident copies per unique uop
    double fillFactor = 1.0;     ///< filled / reserved uop slots
    double condMispredictRate = 0.0;
    double overallIpc = 0.0;

    uint64_t cycles = 0;
    uint64_t totalUops = 0;
    uint64_t modeSwitches = 0;

    /// @{ XBC-only extras (zero for other frontends).
    uint64_t promotions = 0;
    uint64_t bankConflictDefers = 0;
    uint64_t setSearchHits = 0;
    uint64_t condPredictions = 0;
    /// @}
};

class SuiteRunner
{
  public:
    /**
     * @param trace_len instructions per trace; 0 = default
     *        (XBS_TRACE_LEN / XBS_FAST environment overrides)
     * @param workloads subset of catalog names; empty = all 21
     */
    explicit SuiteRunner(uint64_t trace_len = 0,
                         std::vector<std::string> workloads = {});

    /**
     * Run every configuration over every workload (workload-outer).
     *
     * @param configs labeled configurations
     * @param progress optional callback after each (workload, config)
     */
    std::vector<RunResult>
    sweep(const std::vector<std::pair<std::string, SimConfig>> &configs,
          const std::function<void(const RunResult &)> &progress = {});

    /** Measure a single (workload, config) pair. */
    RunResult runOne(const std::string &workload,
                     const std::string &label, const SimConfig &config);

    const std::vector<std::string> &workloads() const
    {
        return workloads_;
    }

    /// @{ Aggregation helpers over sweep results.
    static double meanMissRate(const std::vector<RunResult> &results,
                               const std::string &label,
                               const std::string &suite = "");
    static double meanBandwidth(const std::vector<RunResult> &results,
                                const std::string &label,
                                const std::string &suite = "");
    /// @}

  private:
    RunResult measure(const Trace &trace, const std::string &suite,
                      const std::string &label,
                      const SimConfig &config);

    uint64_t traceLen_;
    std::vector<std::string> workloads_;
};

} // namespace xbs

#endif // XBS_SIM_RUNNER_HH
