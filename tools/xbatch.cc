/**
 * @file
 * xbatch - fault-tolerant parallel sweep driver: runs the workload x
 * frontend (x capacity) matrix as isolated child processes under a
 * supervisor with a bounded worker pool, per-job timeouts, and
 * bounded retries with exponential backoff (one retry, 200 ms, a 2 s
 * TERM-to-KILL grace: SchedulerOptions' defaults).
 *
 * The supervisor builds each workload's trace once and forks every
 * cell from it (batch/cells.hh): a cell simulates the resident trace,
 * shared copy-on-write, and prints what `xbsim --json` would. The
 * sweep directory holds report.json, written atomically at the end,
 * plus intervals/ with --intervals. Nothing else is persisted: a
 * sweep whose supervisor dies is rerun.
 *
 * Examples:
 *   xbatch --workloads=gcc,go,li --frontends=tc,xbc --jobs=4
 *   xbatch --capacities=16384,32768,65536 --out=sweep
 *
 * Exit codes: 0 every job ok; 1 bad flags (before any cell runs); 2
 * report.json could not be written; 4 sweep completed but some jobs
 * failed (degraded success: the report still covers the whole
 * matrix); 5 the sweep itself was interrupted (SIGINT/SIGTERM; the
 * report counts the unfinished jobs as notRun).
 */

#include <cstdio>
#include <iostream>
#include <limits>

#include "batch/cells.hh"
#include "batch/job.hh"
#include "batch/report.hh"
#include "batch/scheduler.hh"
#include "common/args.hh"
#include "common/fs.hh"
#include "common/signals.hh"
#include "common/status.hh"
#include "prof/build_info.hh"
#include "workload/catalog.hh"

using namespace xbs;

namespace
{

volatile std::sig_atomic_t g_stop = 0;

Expected<std::vector<uint64_t>>
parseCapacityList(const std::string &csv)
{
    std::vector<uint64_t> out;
    for (const std::string &item : splitList(csv)) {
        uint64_t v = 0;
        if (!parseUintArg(item, &v) || v == 0) {
            return Status::error("bad capacity '" + item +
                                 "' in --capacities");
        }
        out.push_back(v);
    }
    return out;
}

int
fail(const Status &st)
{
    std::fprintf(stderr, "xbatch: %s\n", st.toString().c_str());
    return kExitUsage;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string workloads_csv;
    std::string frontends_csv = "ic,dc,tc,bbtc,xbc";
    std::string capacities_csv = "32768";
    uint64_t insts = 0;
    uint64_t intervals = 0;
    uint64_t jobs = 2;
    double timeout = 300.0;
    std::string out_dir = "xbatch-out";
    std::string ignored_xbsim;
    bool print_table = true;

    ArgParser args("xbatch",
                   "fault-tolerant parallel sweep driver for xbsim");
    args.addString("workloads", &workloads_csv,
                   "comma-separated workload names (default: whole "
                   "catalog)");
    args.addString("frontends", &frontends_csv,
                   "comma-separated frontends to sweep");
    args.addString("capacities", &capacities_csv,
                   "comma-separated capacities in uops");
    args.addUint("insts", &insts,
                 "instructions per job (0 = xbsim default)");
    args.addUint("intervals", &intervals,
                 "per-job interval-stats window in cycles, written "
                 "to <out>/intervals/job-<id>.jsonl (0 = off)");
    args.addUint("jobs", &jobs, "concurrent worker processes");
    args.addDouble("timeout", &timeout,
                   "per-job wall-clock timeout in seconds; a job past "
                   "it is killed and retried as a timeout");
    args.addString("out", &out_dir,
                   "sweep directory (report.json, intervals/)");
    args.addString("xbsim", &ignored_xbsim,
                   "ignored: cells are forked from xbatch, not exec'd");
    args.addBool("print", &print_table,
                 "print the per-job result table");
    if (!args.parse(argc, argv))
        return 0;
    if (!args.positional().empty()) {
        return fail(Status::error("unexpected argument '" +
                                  args.positional()[0] + "'"));
    }
    // A worker count is unsigned: 2^32 would truncate to 0 workers,
    // a sweep that never launches.
    if (jobs == 0 || jobs > std::numeric_limits<unsigned>::max())
        return fail(Status::error("--jobs must be in 1..4294967295"));
    if (timeout <= 0.0)
        return fail(Status::error("--timeout must be > 0"));

    std::vector<std::string> workloads = splitList(workloads_csv);
    if (workloads.empty())
        workloads = catalogWorkloadNames();
    for (const std::string &w : workloads) {
        if (Expected<const CatalogEntry *> e = findWorkloadEx(w);
            !e.ok()) {
            return fail(e.status());
        }
    }
    std::vector<std::string> frontends = splitList(frontends_csv);
    if (frontends.empty())
        return fail(Status::error("--frontends is empty"));
    Expected<std::vector<uint64_t>> capacities =
        parseCapacityList(capacities_csv);
    if (!capacities.ok())
        return fail(capacities.status());
    if (capacities.value().empty())
        return fail(Status::error("--capacities is empty"));
    std::vector<JobSpec> matrix = buildJobMatrix(
        workloads, frontends, capacities.value(), insts);
    // Every cell must make a configuration (a known frontend, a
    // geometry its fields hold) before the first fork.
    for (const JobSpec &job : matrix) {
        if (Expected<SimConfig> c = job.run.config(); !c.ok())
            return fail(c.status());
    }

    if (Status st = ensureDir(out_dir); !st.isOk())
        return fail(st);
    // Interval capture: each cell streams its windows to its own
    // file under <out>/intervals.
    if (intervals) {
        if (Status st = ensureDir(out_dir + "/intervals"); !st.isOk())
            return fail(st);
    }

    installStopHandlers(&g_stop);

    SchedulerOptions opts;
    opts.workers = (unsigned)jobs;
    opts.timeoutSec = timeout;
    opts.stopFlag = &g_stop;
    SweepTraces traces;
    traces.attach(opts, intervals, out_dir + "/intervals");
    opts.onFinal = [](const JobRecord &rec) {
        std::fprintf(stderr, "xbatch: [%s] %s (%.1fs)\n",
                     jobClassName(rec.cls),
                     rec.spec.run.label().c_str(), rec.seconds);
    };

    std::fprintf(stderr,
                 "xbatch: %zu jobs, %u workers, %.0fs timeout -> %s\n",
                 matrix.size(), opts.workers, opts.timeoutSec,
                 out_dir.c_str());
    SweepScheduler sched(opts, std::move(matrix));

    const auto t0 = std::chrono::steady_clock::now();
    sched.run();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - t0).count();
    resetStopHandlers();

    SweepSummary summary =
        summarizeSweep(sched.records(), sched.interrupted(),
                       sched.totalRetries(), wall);
    SweepReportInfo report_info;
    report_info.hasBuild = true;
    report_info.build = buildInfo();
    report_info.intervalCycles = intervals;
    const Status written = writeSweepReport(out_dir, sched.records(),
                                            summary, report_info);
    if (!written.isOk()) {
        std::fprintf(stderr, "xbatch: cannot write report: %s\n",
                     written.toString().c_str());
    }
    if (print_table)
        printSweepSummary(std::cout, sched.records(), summary);

    // report.json is all a sweep leaves behind: losing it fails the
    // sweep, whatever its cells did.
    return written.isOk() ? sched.exitCode() : kExitData;
}
