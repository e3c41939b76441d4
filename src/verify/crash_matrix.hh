/**
 * @file
 * Crash-point matrix: drive the durability layer through every
 * fsync/rename/append site and prove the recovery story at each.
 *
 * The hooks live in the durability code itself (common/crashpoint.hh;
 * armed via XBATCH_CRASH_AT=<site>:<n>, the victim _exit()s with
 * kCrashPointExit on the n-th visit of <site>). This harness is the
 * *driver*: for one visit of one site it forks a victim that writes a
 * sweep directory the way xbatch does (manifest, journal, report),
 * waits for the planted death, then re-opens the state like
 * `xbatch --resume` would and checks the consistency contract:
 *
 *  - journal replay accepts the file (at most a torn tail, never a
 *    mid-file corruption);
 *  - every job id appears at most once as Final (no double counts);
 *  - every final that was ACKED before the crash point still exists
 *    (no lost results — the victim prints acked ids on stdout as it
 *    goes, fsync-ordered before the next step);
 *  - the journal accepts appends again after recovery (the log is
 *    usable, not wedged);
 *  - the manifest and the report read back as either the old
 *    (absent) or the new content, never torn, and can be rewritten.
 *
 * runCrashMatrix() crashes every registered site at each of its
 * visits, so a site is also hit late in the run (the last Final, the
 * report written after every final is acked), not only at its first
 * use; test_batch calls it with its own gtest binary as the victim
 * host.
 */

#ifndef XBS_VERIFY_CRASH_MATRIX_HH
#define XBS_VERIFY_CRASH_MATRIX_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.hh"

namespace xbs
{

/** Outcome of one crash-and-recover cycle at one visit of a site. */
struct CrashSiteResult
{
    std::string site;
    unsigned visit = 1;       ///< the visit of @c site that was armed
    bool crashed = false;     ///< the victim died at the plant
    bool finished = false;    ///< the victim exited 0: fewer visits
    bool recovered = false;   ///< post-crash state passed all checks
    std::size_t ackedFinals = 0;  ///< finals acked before the death
    bool reportFound = false; ///< report.json was on disk after it
    std::string detail;       ///< first failed check (empty if ok)
};

/**
 * The victim body: exercises every durability site at least once
 * against @p dir — writes the manifest atomically, appends each
 * job's journal events, writes the report atomically — printing an
 * ack line for each step once it is durable. Runs to completion
 * (exit 0) when no crash point is armed; exits kCrashPointExit
 * mid-flight when one is. Exposed so a test binary can act as the
 * victim process.
 */
int crashVictimMain(const std::string &dir);

/**
 * Fork a victim (re-executing @p victim_argv with
 * XBATCH_CRASH_AT=<site>:<visit> in its environment), wait for the
 * planted death, then verify recovery of @p dir. The victim argv must
 * invoke crashVictimMain against @p dir; the literal token "{DIR}" in
 * any argv element is replaced with @p dir so one argv template
 * serves every per-visit scratch directory. A victim that exits 0
 * never reached @p visit: the result is marked finished, not crashed.
 */
CrashSiteResult runCrashSite(
    const std::string &site, unsigned visit,
    const std::vector<std::string> &victim_argv,
    const std::string &dir);

/**
 * Run runCrashSite() for every registered crash-point site (see
 * crashPointSites()) at visits 1, 2, ... until the victim runs to
 * completion, each in a fresh subdirectory of @p scratch. Returns
 * one result per crashed visit, in order; a site the victim never
 * reaches yields one finished (failed) result, and the first failed
 * visit ends its site.
 */
std::vector<CrashSiteResult> runCrashMatrix(
    const std::vector<std::string> &victim_argv,
    const std::string &scratch);

/** True when every visit both crashed and recovered. */
bool crashMatrixPassed(const std::vector<CrashSiteResult> &results);

} // namespace xbs

#endif // XBS_VERIFY_CRASH_MATRIX_HH
