/**
 * @file
 * Child-process management for the sweep supervisor: fork/exec with
 * captured stdout/stderr, non-blocking supervision, and the
 * SIGTERM-then-SIGKILL escalation the watchdog uses on hung jobs.
 *
 * Each job runs as its own process, so a crash, abort, runaway
 * allocation, or hang in one simulation cannot take the sweep (or
 * the other workers) down with it — the isolation boundary the whole
 * batch layer is built on.
 */

#ifndef XBS_BATCH_SUBPROCESS_HH
#define XBS_BATCH_SUBPROCESS_HH

#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

#include "common/status.hh"

namespace xbs
{

/** A live (or just-reaped) child process. */
struct Child
{
    pid_t pid = -1;
    int outFd = -1;          ///< non-blocking read end of stdout
    int errFd = -1;          ///< non-blocking read end of stderr
    std::string out;         ///< stdout captured so far
    std::string err;         ///< stderr captured so far

    /// @{ Host resource usage captured via wait4() when the child is
    ///    reaped (hasUsage false if the kernel gave none).
    bool hasUsage = false;
    uint64_t maxRssKb = 0;   ///< peak resident set, KiB
    double userSec = 0.0;    ///< user CPU time
    double sysSec = 0.0;     ///< system CPU time
    uint64_t inBlock = 0;    ///< block-input operations
    uint64_t outBlock = 0;   ///< block-output operations
    /// @}

    bool alive() const { return pid > 0; }
};

/**
 * fork/exec @p argv with stdout and stderr piped back to the
 * supervisor. The child gets its own process group so an escalated
 * kill can target grandchildren too. If the exec itself fails the
 * child exits 127 (classified as JobClass::Spawn).
 */
Expected<Child> spawnChild(const std::vector<std::string> &argv);

/** Drain whatever the pipes currently hold (never blocks). */
void pumpChild(Child &child);

/**
 * Non-blocking reap. Returns true once the child has exited, with
 * the raw waitpid status in @p raw_status; the pipes are drained to
 * EOF and closed, and child.pid is reset.
 */
bool reapChild(Child &child, int *raw_status);

/** Send @p signum to the child's process group (no-op if gone). */
void signalChild(const Child &child, int signum);

/** Close pipe fds (after an unrecoverable spawn-side error). */
void closeChildFds(Child &child);

} // namespace xbs

#endif // XBS_BATCH_SUBPROCESS_HH
