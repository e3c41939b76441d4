/**
 * @file
 * One simulation cell as the tools report it: the result JSON that
 * `xbsim --json` prints and every sweep cell prints (one writer for
 * both), the interval-window stream both can attach, and the
 * simulation each forked sweep cell runs.
 */

#ifndef XBS_SIM_CELL_HH
#define XBS_SIM_CELL_HH

#include <cstdint>
#include <fstream>
#include <string>

#include "common/interval_stats.hh"
#include "common/json.hh"
#include "frontend/frontend.hh"
#include "prof/host_counters.hh"
#include "sim/config.hh"

namespace xbs
{

/**
 * Write the members every result object begins with into an open
 * object: the cell's identity (frontend, workload, capacity), the
 * paper metrics, the miss attribution, build provenance, the host
 * counters of this process and the run's throughput. The caller adds
 * its optional members and closes the object. The sweep supervisor
 * parses the metrics back off each cell's stdout.
 */
void writeResultFields(JsonWriter &jw, const std::string &frontend,
                       const std::string &workload, uint64_t capacity,
                       uint64_t total_uops, const Frontend &fe,
                       const ThroughputMeter::Rates &overall);

/**
 * A frontend's interval windows streamed as JSONL to a file: a
 * sampler over its stat tree, each window annotated with a "host"
 * object of throughput since @p meter was reset. Keep it alive until
 * after Frontend::finishObservation().
 */
class IntervalStream
{
  public:
    /** Open @p path and attach to @p fe (check ok() first). */
    IntervalStream(Frontend &fe, uint64_t window,
                   const std::string &path, ThroughputMeter &meter);

    /** False when @p path could not be opened. */
    bool ok() const { return os_.good(); }

  private:
    std::ofstream os_;
    IntervalSampler sampler_;
};

/** Where a cell streams its interval windows (window 0: off). */
struct CellIntervals
{
    uint64_t window = 0;
    std::string path;
};

/**
 * Simulate @p spec over @p trace and print the result JSON on
 * stdout, as `xbsim --json` given the spec's flags would. SIGINT and
 * SIGTERM drain the run at the next cycle boundary: the partial
 * result is printed with "interrupted": true.
 *
 * @param trace    the spec's trace; nullptr when its workload is not
 *                 in the catalog (a usage error)
 * @param observer attached for the run when not nullptr (tests use
 *                 it to slow or wedge a cell)
 * @return the exit code: 0, kExitUsage or kExitInterrupted
 */
int runCell(const RunSpec &spec, const Trace *trace,
            const CellIntervals &intervals,
            CycleObserver *observer = nullptr);

} // namespace xbs

#endif // XBS_SIM_CELL_HH
