/**
 * @file
 * Crash-point injection: deterministic process death at a named step
 * of a durable write.
 *
 * writeFileAtomic (common/fs.cc) calls crashPoint("atomic.<step>")
 * after each of its four steps. A test forks a writer, arms one site
 * in it and lets it write: at that site the writer dies on the spot
 * with _exit(kCrashPointExit), modeling a SIGKILL at exactly that
 * instruction (no destructors, no flushes, no atexit). The test then
 * reads back what the writer left.
 *
 * Unarmed (the normal case) the hook is one predicted branch, so it
 * stays compiled into release binaries and the test exercises the
 * real code path.
 */

#ifndef XBS_COMMON_CRASHPOINT_HH
#define XBS_COMMON_CRASHPOINT_HH

namespace xbs
{

/** Exit code a crash-point death uses (distinguishable from every
 *  real exit code and from shell signal deaths). */
constexpr int kCrashPointExit = 86;

/** Die here if armCrashPoint() selected @p site. */
void crashPoint(const char *site);

/** Make this process die at its next visit of @p site (tests only:
 *  arm it in a forked child). @p site must outlive the process. */
void armCrashPoint(const char *site);

} // namespace xbs

#endif // XBS_COMMON_CRASHPOINT_HH
