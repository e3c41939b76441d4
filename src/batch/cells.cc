#include "batch/cells.hh"

#include <algorithm>
#include <exception>

#include "common/logging.hh"
#include "workload/catalog.hh"

namespace xbs
{

namespace
{

/** Cells of one workload at one length read the same trace. */
bool
sameTrace(const RunSpec &a, const RunSpec &b)
{
    return a.workload == b.workload && a.insts == b.insts;
}

} // anonymous namespace

SweepTraces::SweepTraces(Builder build) : build_(std::move(build))
{
    if (!build_) {
        build_ = [](const RunSpec &spec) {
            return makeCatalogTrace(spec.workload, spec.insts);
        };
    }
}

void
SweepTraces::prepare(const std::vector<const JobSpec *> &queue)
{
    if (queue.empty())
        return;
    const RunSpec &next = queue.front()->run;
    if (find(next))
        return;
    trace_.reset();

    // One build here replaces one per reader, but the supervisor
    // builds one trace at a time: a lone reader builds its own, in
    // parallel with the other workers.
    const auto readers =
        std::count_if(queue.begin(), queue.end(),
                      [&](const JobSpec *job) {
                          return sameTrace(job->run, next);
                      });
    const bool failed_before =
        std::any_of(failed_.begin(), failed_.end(),
                    [&](const RunSpec &spec) {
                        return sameTrace(spec, next);
                    });
    if (readers < 2 || failed_before || !findWorkloadPtr(next.workload))
        return;
    try {
        trace_.emplace(build_(next));
        key_ = next;
    } catch (const std::exception &e) {
        // Never take the supervisor down: the cells build their own,
        // each inside its own process.
        failed_.push_back(next);
        xbs_warn("cannot build %s@%llu's trace for its cells (%s)",
                 next.workload.c_str(), (unsigned long long)next.insts,
                 e.what());
    }
}

const Trace *
SweepTraces::find(const RunSpec &spec) const
{
    return trace_ && sameTrace(key_, spec) ? &*trace_ : nullptr;
}

int
SweepTraces::simulate(const RunSpec &spec,
                      const CellIntervals &intervals,
                      CycleObserver *observer) const
{
    if (const Trace *shared = find(spec))
        return runCell(spec, shared, intervals, observer);
    std::optional<Trace> own;
    if (findWorkloadPtr(spec.workload))
        own.emplace(build_(spec));
    return runCell(spec, own ? &*own : nullptr, intervals, observer);
}

void
SweepTraces::attach(SchedulerOptions &opts, uint64_t interval_cycles,
                    const std::string &interval_dir)
{
    opts.prepare = [this](const std::vector<const JobSpec *> &queue) {
        prepare(queue);
    };
    opts.cellBody = [this, interval_cycles,
                     interval_dir](const JobSpec &job) {
        CellIntervals intervals;
        if (interval_cycles) {
            intervals.window = interval_cycles;
            intervals.path = interval_dir + "/job-" +
                             std::to_string(job.id) + ".jsonl";
        }
        return simulate(job.run, intervals);
    };
}

} // namespace xbs
