/**
 * @file
 * Crash-point injection: deterministic process death at named
 * durability-critical instructions, for the crash-point matrix.
 *
 * Every fsync/rename/append site in common/fs calls
 * crashPoint("site.name"). When the environment selects that site —
 * XBATCH_CRASH_AT=<site>:<n> — the n-th execution of the site kills
 * the process on the spot with _exit(), modeling a SIGKILL (or power
 * loss) at exactly that instruction: no destructors, no flushes, no
 * atexit. The durability claims of the batch layer ("an acknowledged
 * record survives a crash at any instant") are tested by iterating
 * every registered site (see verify/crash_matrix) instead of only the
 * few crash timings a hand-written test happens to produce.
 *
 * Disabled (the normal case) the hook is one predicted branch on a
 * cached bool, so it stays compiled into release binaries and the
 * harness tests the real production code path.
 */

#ifndef XBS_COMMON_CRASHPOINT_HH
#define XBS_COMMON_CRASHPOINT_HH

#include <string>
#include <vector>

namespace xbs
{

/** Exit code a crash-point death uses (distinguishable from every
 *  real exit code and from shell signal deaths). */
constexpr int kCrashPointExit = 86;

/**
 * Die here if XBATCH_CRASH_AT selects @p site. @p site must be a
 * string literal from the registry below (asserted by the harness,
 * not at runtime — the hot path stays a single branch).
 */
void crashPoint(const char *site);

/** True when XBATCH_CRASH_AT is set (tests skip timing-sensitive
 *  assertions under injection). */
bool crashPointArmed();

/**
 * Every site name compiled into the binary, in a stable order. The
 * crash matrix iterates this list; a listed site that no code
 * reaches fails the matrix (the victim exits cleanly instead of
 * dying), so the registry cannot rot.
 */
const std::vector<std::string> &crashPointSites();

/** Reset the per-site hit counters and re-read the environment
 *  (tests only; a forked victim inherits fresh state anyway). */
void crashPointReset();

} // namespace xbs

#endif // XBS_COMMON_CRASHPOINT_HH
