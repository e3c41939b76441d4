/**
 * @file
 * Interval statistics sampler: snapshots every ScalarStat under a
 * StatGroup each N simulated cycles and emits the *windowed deltas*
 * as one JSON object per line (JSONL). End-of-run aggregates hide
 * phase behavior; the per-interval stream recovers the time axis
 * (bandwidth, miss rate, mode switches, bank conflicts per window)
 * without any per-cycle logging cost.
 *
 * Guarantee used by the tests and tools: every counted event lands in
 * exactly one window (the final partial window included), so summing
 * any stat's deltas over all windows reproduces the end-of-run value
 * exactly.
 */

#ifndef XBS_COMMON_INTERVAL_STATS_HH
#define XBS_COMMON_INTERVAL_STATS_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace xbs
{

class JsonWriter;

class IntervalSampler
{
  public:
    /**
     * @param root     stat tree to sample (walked once, here; stats
     *                 registered later are not seen)
     * @param interval window length in cycles (>= 1)
     */
    IntervalSampler(const StatGroup &root, uint64_t interval);

    /** Set the JSONL destination (nullptr silences emission). */
    void setOutput(std::ostream *os) { os_ = os; }

    /**
     * Install a hook called while each window object is open, so a
     * driver can append extra members (e.g. the "host" throughput
     * sub-object from src/prof) without this class depending on it.
     * The hook must add complete members only — no begin/end
     * imbalance. Empty function detaches.
     */
    void setAnnotator(std::function<void(JsonWriter &)> fn)
    {
        annotator_ = std::move(fn);
    }

    /**
     * Advance simulated time to @p cycle; emits one window per
     * boundary crossed. Call once per cycle (multi-cycle jumps are
     * handled; the whole jump's deltas land in the first window).
     */
    void
    tick(uint64_t cycle)
    {
        if (cycle >= nextBoundary_)
            crossBoundaries(cycle);
    }

    /** Emit the final (usually partial) window ending at @p cycle. */
    void finish(uint64_t cycle);

    uint64_t windowsEmitted() const { return windows_; }

  private:
    void crossBoundaries(uint64_t cycle);
    void emitWindow(uint64_t start_cycle, uint64_t end_cycle);
    void walk(const StatGroup &group, const std::string &prefix);
    std::size_t findPath(const std::string &suffix) const;
    uint64_t delta(std::size_t idx) const;

    uint64_t interval_;
    uint64_t nextBoundary_;
    uint64_t windowStart_ = 0;
    uint64_t windows_ = 0;
    bool finished_ = false;
    std::ostream *os_ = nullptr;
    std::function<void(JsonWriter &)> annotator_;

    std::vector<std::string> paths_;
    std::vector<const ScalarStat *> stats_;
    std::vector<uint64_t> prev_;

    /// @{ Indices of the headline-metric ingredients ((size_t)-1 if the
    ///    tree has no FrontendMetrics group).
    std::size_t renamedIdx_;
    std::size_t deliveryCyclesIdx_;
    std::size_t deliveryUopsIdx_;
    std::size_t buildUopsIdx_;
    /// @}
};

} // namespace xbs

#endif // XBS_COMMON_INTERVAL_STATS_HH
