/**
 * @file
 * xbatch - fault-tolerant parallel sweep driver: runs the workload x
 * frontend (x capacity) matrix as isolated xbsim child processes
 * under a supervisor with a bounded worker pool, per-job timeouts,
 * bounded retries with exponential backoff, and a crash-safe journal
 * that makes an interrupted (or SIGKILLed) sweep resumable.
 *
 * Examples:
 *   xbatch --workloads=gcc,go,li --frontends=tc,xbc --jobs=4
 *   xbatch --capacities=16384,32768,65536 --out=sweep
 *   xbatch --resume=sweep
 *
 * Exit codes: 0 every job ok; 4 sweep completed but some jobs failed
 * (degraded success: the report still covers the whole matrix); 5 the
 * sweep itself was interrupted (SIGINT/SIGTERM; resume to continue).
 */

#include <cstdio>
#include <iostream>

#include "batch/job.hh"
#include "batch/journal.hh"
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

/** Default the child binary to a sibling of this one. */
std::string
siblingXbsim(const char *argv0)
{
    std::string self(argv0);
    std::size_t slash = self.find_last_of('/');
    if (slash == std::string::npos)
        return "xbsim";  // rely on PATH
    return self.substr(0, slash + 1) + "xbsim";
}

Expected<std::vector<uint64_t>>
parseCapacityList(const std::string &csv)
{
    std::vector<uint64_t> out;
    for (const std::string &item : splitList(csv)) {
        char *end = nullptr;
        unsigned long long v = std::strtoull(item.c_str(), &end, 0);
        if (end == item.c_str() || *end != '\0' || v == 0) {
            return Status::error("bad capacity '" + item +
                                 "' in --capacities");
        }
        out.push_back((uint64_t)v);
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
    uint64_t retries = 1;
    uint64_t backoff_ms = 200;
    double grace = 2.0;
    std::string out_dir = "xbatch-out";
    std::string resume_dir;
    std::string xbsim_path;
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
    args.addUint("retries", &retries,
                 "extra attempts for transient failures");
    args.addUint("backoff-ms", &backoff_ms,
                 "base retry backoff in ms (doubles per attempt)");
    args.addDouble("grace", &grace,
                   "seconds between SIGTERM and SIGKILL");
    args.addString("out", &out_dir,
                   "sweep directory (manifest, journal, report)");
    args.addString("resume", &resume_dir,
                   "resume an interrupted sweep from its directory");
    args.addString("xbsim", &xbsim_path,
                   "xbsim binary (default: next to xbatch)");
    args.addBool("print", &print_table,
                 "print the per-job result table");
    if (!args.parse(argc, argv))
        return 0;
    if (!args.positional().empty()) {
        return fail(Status::error("unexpected argument '" +
                                  args.positional()[0] + "'"));
    }
    if (jobs == 0)
        return fail(Status::error("--jobs must be >= 1"));
    if (timeout <= 0.0)
        return fail(Status::error("--timeout must be > 0"));

    const bool resuming = !resume_dir.empty();
    const std::string dir = resuming ? resume_dir : out_dir;

    SweepManifest manifest;
    std::vector<JournalEvent> replayed;
    if (resuming) {
        // The manifest is the source of truth for the matrix and the
        // supervision parameters, so a resumed sweep is the same
        // sweep (CLI sweep flags are ignored on purpose).
        Expected<SweepManifest> m = SweepJournal::readManifest(dir);
        if (!m.ok())
            return fail(m.status());
        manifest = m.take();
        Expected<std::vector<JournalEvent>> ev =
            SweepJournal::replay(dir);
        if (!ev.ok())
            return fail(ev.status());
        replayed = ev.take();
    } else {
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
        for (const std::string &f : frontends) {
            if (Expected<FrontendKind> k = parseFrontendKind(f);
                !k.ok()) {
                return fail(k.status());
            }
        }
        Expected<std::vector<uint64_t>> capacities =
            parseCapacityList(capacities_csv);
        if (!capacities.ok())
            return fail(capacities.status());
        if (capacities.value().empty())
            return fail(Status::error("--capacities is empty"));

        manifest.xbsim = xbsim_path.empty() ? siblingXbsim(argv[0])
                                            : xbsim_path;
        manifest.workers = (unsigned)jobs;
        manifest.timeoutSec = timeout;
        manifest.maxRetries = (unsigned)retries;
        manifest.backoffMs = (unsigned)backoff_ms;
        manifest.intervalCycles = intervals;
        manifest.jobs = buildJobMatrix(workloads, frontends,
                                       capacities.value(), insts);

        if (Status st = ensureDir(dir); !st.isOk())
            return fail(st);
        if (Status st = SweepJournal::writeManifest(dir, manifest);
            !st.isOk()) {
            return fail(st);
        }
    }

    // Interval capture: each child streams its windows to its own
    // file under <dir>/intervals (resume reuses the manifest's
    // window so replayed and fresh jobs observe alike).
    if (manifest.intervalCycles) {
        if (Status st = ensureDir(dir + "/intervals"); !st.isOk())
            return fail(st);
    }

    SweepJournal journal;
    if (Status st = journal.open(dir); !st.isOk())
        return fail(st);

    installStopHandlers(&g_stop);

    SchedulerOptions opts;
    opts.xbsimPath = manifest.xbsim;
    opts.workers = manifest.workers;
    opts.timeoutSec = manifest.timeoutSec;
    opts.maxRetries = manifest.maxRetries;
    opts.backoffMs = manifest.backoffMs;
    opts.graceSec = grace;
    opts.stopFlag = &g_stop;
    if (manifest.intervalCycles) {
        const uint64_t window = manifest.intervalCycles;
        opts.extraArgs = [dir, window](const JobSpec &spec) {
            return std::vector<std::string>{
                "--interval-stats=" + std::to_string(window),
                "--interval-out=" + dir + "/intervals/job-" +
                    std::to_string(spec.id) + ".jsonl"};
        };
    }
    const std::size_t total = manifest.jobs.size();
    opts.onFinal = [total](const JobRecord &rec) {
        if (rec.replayed)
            return;
        std::fprintf(stderr, "xbatch: [%s] %s (%.1fs)\n",
                     jobClassName(rec.cls),
                     rec.spec.run.label().c_str(), rec.seconds);
        (void)total;
    };

    SweepScheduler sched(opts, manifest.jobs, &journal);
    if (resuming) {
        journal.seedSeq(sched.restore(replayed));
        std::fprintf(stderr,
                     "xbatch: resuming %s: %zu/%zu jobs already "
                     "done\n",
                     dir.c_str(), sched.doneCount(), total);
    } else {
        std::fprintf(stderr,
                     "xbatch: %zu jobs, %u workers, %.0fs timeout "
                     "-> %s\n",
                     total, opts.workers, opts.timeoutSec,
                     dir.c_str());
    }

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
    report_info.intervalCycles = manifest.intervalCycles;
    if (Status st = writeSweepReport(dir, sched.records(), summary,
                                     report_info);
        !st.isOk()) {
        std::fprintf(stderr, "xbatch: cannot write report: %s\n",
                     st.toString().c_str());
    }
    if (print_table)
        printSweepSummary(std::cout, sched.records(), summary);

    // Graceful degradation: a completed sweep always produces the
    // full report; failures degrade the exit code, never abort the
    // matrix.
    if (sched.interrupted())
        return kExitInterrupted;
    return sched.allOk() ? kExitOk : kExitDegraded;
}
