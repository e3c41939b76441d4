/**
 * @file
 * Simulator cells for the sweep supervisor. A workload's trace that
 * two or more queued cells read is built once, in the supervisor, and
 * each of those cells is a forked child that simulates it, shared
 * copy-on-write: none rebuilds its program or regenerates its trace.
 * A cell whose trace no other queued cell reads builds its own, in
 * its own process, so the workers build such traces in parallel.
 *
 * At most one trace is resident: it is dropped when the next queued
 * cell reads another, and that cell's trace is then built while the
 * workers run. A retry whose trace was dropped gets it rebuilt, by
 * the supervisor when other queued cells read it too, else by itself.
 * A trace the supervisor failed to build is left to its cells, whose
 * failures are classified and retried like any other.
 */

#ifndef XBS_BATCH_CELLS_HH
#define XBS_BATCH_CELLS_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "batch/scheduler.hh"
#include "sim/cell.hh"
#include "sim/config.hh"
#include "trace/trace.hh"

namespace xbs
{

class SweepTraces
{
  public:
    /** Makes the trace of a cell's (workload, insts). */
    using Builder = std::function<Trace(const RunSpec &)>;

    /** @param build default: the catalog workload at the spec's
     *  instruction count (makeCatalogTrace) */
    explicit SweepTraces(Builder build = {});

    /** Make the trace of @p queue's first cell resident when another
     *  queued cell reads it too, dropping any other trace first. The
     *  queue holds the cells not yet forked, in launch order. */
    void prepare(const std::vector<const JobSpec *> &queue);

    /** @p spec's trace if it is resident, else nullptr. */
    const Trace *find(const RunSpec &spec) const;

    /** The resident trace, if any. */
    const Trace *resident() const
    {
        return trace_ ? &*trace_ : nullptr;
    }

    /** A cell's body: runCell() over @p spec's resident trace, or
     *  over one it builds itself when none is resident. */
    int simulate(const RunSpec &spec, const CellIntervals &intervals,
                 CycleObserver *observer = nullptr) const;

    /**
     * Point @p opts at simulator cells over these traces: prepare as
     * above, and simulate() as the cell body. With
     * @p interval_cycles > 0 each cell streams its windows to
     * <interval_dir>/job-<id>.jsonl.
     */
    void attach(SchedulerOptions &opts, uint64_t interval_cycles = 0,
                const std::string &interval_dir = "");

  private:
    Builder build_;
    std::optional<Trace> trace_;
    RunSpec key_;                  ///< the workload and insts of trace_
    std::vector<RunSpec> failed_;  ///< builds that threw here
};

} // namespace xbs

#endif // XBS_BATCH_CELLS_HH
