/**
 * @file
 * Batch job model: what one cell of a sweep matrix is (JobSpec), how
 * a finished child process is classified (JobClass), and what the
 * supervisor remembers about it (JobRecord).
 *
 * The classification maps xbsim's exit-code taxonomy (see
 * common/status.hh) plus the two supervisor-side outcomes — timeout
 * and failure to spawn — onto retry policy: crashes and timeouts are
 * transient (a wedged machine, a scheduling hiccup, a livelock that a
 * different interleaving avoids) and are retried with exponential
 * backoff; usage, data, and audit failures are deterministic
 * properties of the job and retrying them would only burn time.
 */

#ifndef XBS_BATCH_JOB_HH
#define XBS_BATCH_JOB_HH

#include <string>
#include <vector>

#include "attrib/rollup.hh"
#include "common/status.hh"
#include "sim/config.hh"

namespace xbs
{

/** One cell of the sweep matrix. */
struct JobSpec
{
    int id = 0;
    RunSpec run;
};

/** Terminal classification of one job attempt. */
enum class JobClass
{
    Ok,           ///< exit 0
    Usage,        ///< exit 1: bad flags / unknown names
    Data,         ///< exit 2: malformed input (corrupt trace, ...)
    Audit,        ///< exit 3: invariant/oracle violations
    Interrupted,  ///< exit 5: child drained on supervisor shutdown
    Timeout,      ///< wall-clock deadline hit; watchdog killed it
    Crash,        ///< died on a signal (or an unknown exit code)
    Spawn,        ///< fork or exec failed (exit 127, pipe error)
    Resource,     ///< transient host exhaustion (ENOSPC/EAGAIN/...)
};

const char *jobClassName(JobClass cls);

/** Inverse of jobClassName (for journal replay). */
Expected<JobClass> jobClassFromName(const std::string &name);

/** Transient classes are retried; deterministic ones are not. */
bool jobClassRetryable(JobClass cls);

/**
 * Map a reaped child to its class.
 *
 * @param timed_out   the watchdog initiated the kill: whatever the
 *                    child managed to report, the attempt is a
 *                    Timeout (a drained child exits 5, an unreactive
 *                    one dies on SIGKILL; both took too long)
 * @param exited      WIFEXITED
 * @param exit_code   WEXITSTATUS when exited
 * @param term_signal WTERMSIG when signaled
 */
JobClass classifyOutcome(bool timed_out, bool exited, int exit_code,
                         int term_signal);

/**
 * Make arbitrary child stderr safe for one JSONL journal line and
 * the report: strip control characters (a binary stderr must never
 * embed a newline or escape into the journal) and truncate to
 * @p max_len bytes with a "..." marker.
 */
std::string sanitizeNote(const std::string &text,
                         std::size_t max_len = 160);

/** Metrics parsed from a successful child's stdout JSON. */
struct JobMetrics
{
    double bandwidth = 0.0;
    double missRate = 0.0;
    double overallIpc = 0.0;
    uint64_t cycles = 0;
    uint64_t totalUops = 0;
    /** Root-cause rollup (src/attrib); has==false on old children. */
    AttribRollup attrib;
};

/** Per-child host resource usage (wait4; see batch/subprocess). */
struct JobUsage
{
    uint64_t maxRssKb = 0;  ///< peak resident set, KiB
    double userSec = 0.0;   ///< user CPU time
    double sysSec = 0.0;    ///< system CPU time
    uint64_t inBlock = 0;   ///< block-input ops (trace-decode I/O)
    uint64_t outBlock = 0;  ///< block-output ops
};

/** What the supervisor remembers about one job across attempts. */
struct JobRecord
{
    JobSpec spec;
    bool done = false;         ///< terminal (final journal event)
    JobClass cls = JobClass::Ok;
    int attempts = 0;          ///< attempts that consumed a try
    int exitCode = -1;         ///< last attempt's exit code (-1: n/a)
    int termSignal = 0;        ///< last attempt's signal (0: none)
    double seconds = 0.0;      ///< last attempt's wall time
    bool hasMetrics = false;
    JobMetrics metrics;
    bool hasUsage = false;     ///< last attempt's rusage captured
    JobUsage usage;
    std::string note;          ///< first stderr line of a failure
    bool replayed = false;     ///< restored from a journal on resume
};

/**
 * Enumerate the workload x frontend x capacity matrix in
 * deterministic order (workload-outer, matching SuiteRunner, so job
 * ids are stable across runs and resumable).
 */
std::vector<JobSpec> buildJobMatrix(
    const std::vector<std::string> &workloads,
    const std::vector<std::string> &frontends,
    const std::vector<uint64_t> &capacities, uint64_t insts);

/** Split a comma-separated CLI list ("a,b,c"); empty string -> {}. */
std::vector<std::string> splitList(const std::string &csv);

} // namespace xbs

#endif // XBS_BATCH_JOB_HH
