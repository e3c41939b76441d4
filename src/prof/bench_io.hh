/**
 * @file
 * The bench.json layer: one run-level performance artifact per sweep,
 * and the regression comparison against a checked-in baseline.
 *
 * Pipeline (see docs/MODEL.md "Profiling & regression tracking"):
 *
 *   xbatch sweep  ->  <dir>/report.json + <dir>/intervals/job-N.jsonl
 *   xbagg         ->  bench.json   (this file's aggregate half)
 *   xbregress     ->  delta table + exit code (the compare half)
 *
 * bench.json carries, per (frontend, workload, geometry) cell, the
 * paper metrics (uop miss rate, bandwidth, overall uops/cycle) with
 * p50/p95/p99 interval-bandwidth percentiles, plus host-performance
 * metrics (CPU seconds, peak RSS, uops per host second), stamped
 * with build provenance so baselines are never compared across
 * incompatible builds.
 *
 * Aggregation degrades gracefully: a job with a torn or missing
 * interval file keeps its paper metrics and simply lacks (or
 * truncates) the interval percentiles, with the damage flagged.
 */

#ifndef XBS_PROF_BENCH_IO_HH
#define XBS_PROF_BENCH_IO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "attrib/rollup.hh"
#include "common/status.hh"
#include "prof/build_info.hh"

namespace xbs
{

/** Host-side resource totals (per row: one job; top level: sweep). */
struct BenchHost
{
    bool has = false;
    double seconds = 0.0;        ///< wall time
    double userSec = 0.0;
    double sysSec = 0.0;
    uint64_t maxRssKb = 0;
    double uopsPerHostSec = 0.0; ///< totalUops / cpu seconds

    double cpuSec() const { return userSec + sysSec; }
};

/** Interval-bandwidth rollup over one job's JSONL window stream. */
struct BenchIntervals
{
    bool has = false;
    bool torn = false;     ///< stream ended in a malformed line
    uint64_t windows = 0;  ///< complete windows used
    double bwP50 = 0.0;
    double bwP95 = 0.0;
    double bwP99 = 0.0;
};

/** One (frontend, workload, geometry) cell of the sweep. */
struct BenchRow
{
    std::string id;        ///< "xbc/gcc@32768" (RunSpec::label form)
    std::string frontend;
    std::string workload;
    uint64_t capacity = 0;

    double missRate = 0.0;
    double bandwidth = 0.0;
    double overallIpc = 0.0;
    uint64_t cycles = 0;
    uint64_t totalUops = 0;

    BenchHost host;
    BenchIntervals intervals;
    AttribRollup attrib;  ///< root-cause rollup (has==false: absent)
};

/** The whole artifact. */
struct BenchReport
{
    int version = 1;
    BuildInfo build;
    uint64_t jobsTotal = 0;
    uint64_t jobsOk = 0;
    uint64_t jobsFailed = 0;
    double wallSeconds = 0.0;
    uint64_t intervalCycles = 0;  ///< 0: sweep ran without intervals
    std::vector<BenchRow> rows;   ///< ok jobs only, matrix order
    BenchHost host;               ///< sweep-wide rollup
};

/**
 * Merge @p dir/report.json and @p dir/<intervalDir>/job-<id>.jsonl
 * into a BenchReport. Fails only when report.json itself is missing
 * or malformed; per-job interval damage degrades the affected row.
 */
Expected<BenchReport> aggregateSweepDir(const std::string &dir);

/** Serialize (pretty, stable member order). */
std::string renderBenchJson(const BenchReport &report);

/** Parse a bench.json document. */
Expected<BenchReport> parseBenchJson(const std::string &text,
                                     const std::string &path);

/** Slurp + parse. */
Expected<BenchReport> readBenchFile(const std::string &path);

/// ------------------------------------------------------------------
/// Regression comparison.

enum class MetricVerdict
{
    Pass,           ///< within threshold (or improved)
    Warn,           ///< worse beyond threshold, but not gated
    Regress,        ///< worse beyond threshold, gated
    MissingMetric,  ///< baseline has it, current does not
};

const char *metricVerdictName(MetricVerdict v);

/** One compared metric. */
struct MetricDelta
{
    std::string name;      ///< "xbc/gcc@32768.missRate"
    double baseline = 0.0;
    double current = 0.0;
    double rel = 0.0;      ///< (current - baseline) / |baseline|
    double tol = 0.0;      ///< relative threshold applied
    bool host = false;     ///< host-perf metric (loose/warn class)
    bool improved = false; ///< better beyond threshold
    MetricVerdict verdict = MetricVerdict::Pass;
};

struct RegressOptions
{
    double paperTol = 0.005;  ///< paper metrics: +-0.5% relative
    double hostTol = 0.50;    ///< host metrics: +-50% relative
    bool gateHost = false;    ///< host regressions fail (vs warn)
    bool allowBuildMismatch = false;
};

struct RegressReport
{
    std::vector<MetricDelta> deltas;
    std::vector<std::string> buildNotes;  ///< soft build differences
    /** One line per regressed row naming the attribution category
     *  that moved the most (both sides need attrib data). */
    std::vector<std::string> attribNotes;
    bool buildMismatch = false;  ///< hard (type/sanitizer) mismatch
    bool buildGated = false;     ///< mismatch counts as a failure
    std::size_t compared = 0;
    std::size_t regressions = 0;
    std::size_t warnings = 0;
    std::size_t missing = 0;
    std::size_t improvements = 0;

    bool
    pass() const
    {
        return !buildGated && regressions == 0 && missing == 0;
    }
};

/** Compare @p current against @p baseline metric-for-metric. */
RegressReport compareBench(const BenchReport &current,
                           const BenchReport &baseline,
                           const RegressOptions &opts);

/**
 * Render the delta table (common/table). With @p all false only
 * non-Pass and improved rows are shown; the summary line always is.
 */
std::string renderRegressTable(const RegressReport &report, bool all);

/**
 * The BENCH_<n>.json trajectory record: comparison verdict + counts
 * plus the full current bench report, so one file carries both "did
 * we regress" and "what were the numbers".
 */
std::string renderBenchRecord(const BenchReport &current,
                              const RegressReport &regress,
                              const std::string &baseline_path);

} // namespace xbs

#endif // XBS_PROF_BENCH_IO_HH
