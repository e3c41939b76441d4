/**
 * @file
 * The aggregate sweep report: per-job outcomes plus the metrics of
 * every successful run, written atomically as report.json so a
 * degraded sweep still hands analysis scripts everything that did
 * complete.
 */

#ifndef XBS_BATCH_REPORT_HH
#define XBS_BATCH_REPORT_HH

#include <ostream>
#include <string>
#include <vector>

#include "batch/job.hh"
#include "common/status.hh"
#include "prof/build_info.hh"

namespace xbs
{

/** Aggregate counters over a set of job records. */
struct SweepSummary
{
    std::size_t total = 0;
    std::size_t ok = 0;
    std::size_t failed = 0;    ///< final but not Ok
    std::size_t notRun = 0;    ///< never finalized (drained sweep)
    unsigned retries = 0;
    bool interrupted = false;
    double wallSeconds = 0.0;

    /** Per-class counts of finalized jobs, by jobClassName. */
    std::vector<std::pair<std::string, std::size_t>> classCounts;
};

SweepSummary summarizeSweep(const std::vector<JobRecord> &records,
                            bool interrupted, unsigned retries,
                            double wall_seconds);

/** Provenance stamped into the report (all optional, default off). */
struct SweepReportInfo
{
    bool hasBuild = false;       ///< emit a buildInfo object
    BuildInfo build;
    uint64_t intervalCycles = 0; ///< per-job interval window (0: off)
};

/** Serialize summary + per-job results as the report JSON. */
std::string renderSweepReport(const std::vector<JobRecord> &records,
                              const SweepSummary &summary,
                              const SweepReportInfo &info = {});

/** Atomically (re)write @p dir/report.json. */
Status writeSweepReport(const std::string &dir,
                        const std::vector<JobRecord> &records,
                        const SweepSummary &summary,
                        const SweepReportInfo &info = {});

/** Human-readable per-job table + summary line (xbatch stdout). */
void printSweepSummary(std::ostream &os,
                       const std::vector<JobRecord> &records,
                       const SweepSummary &summary);

} // namespace xbs

#endif // XBS_BATCH_REPORT_HH
