/**
 * @file
 * Crash-safe filesystem helpers for the batch layer.
 *
 * The xbatch journal must survive a SIGKILL of the supervisor at any
 * instruction, so every durable write here follows one of two
 * disciplines:
 *
 *  - whole files (manifest.json, report.json): write to
 *    "<path>.tmp.<pid>", fsync the file, rename() over the target,
 *    fsync the directory. Readers see either the old or the new
 *    complete file, never a torn one.
 *
 *  - append-only logs (journal.jsonl): open O_APPEND (fsyncing the
 *    directory when the log is first created, so the file itself
 *    survives), write each record as one complete line, fsync after
 *    the line. A crash can leave at most one torn *final* line,
 *    which replay tolerates.
 *
 * Every fsync/rename/append site carries a crashPoint() hook (see
 * common/crashpoint.hh) so the crash-point matrix can kill the
 * process at each of them and prove the discipline actually holds.
 */

#ifndef XBS_COMMON_FS_HH
#define XBS_COMMON_FS_HH

#include <cstdint>
#include <string>

#include "common/status.hh"

namespace xbs
{

/** Map write-path errno values onto the typed Status codes retry
 *  policies key on: the transient exhaustion family (ENOSPC, EAGAIN,
 *  ENOMEM, ...) becomes Resource, ENOENT becomes NotFound. */
StatusCode errnoStatusCode(int err);

/** mkdir -p: create @p dir and any missing parents (0755). */
Status ensureDir(const std::string &dir);

/** Atomically replace @p path with @p content (tmp+fsync+rename,
 *  then fsync of the containing directory). */
Status writeFileAtomic(const std::string &path,
                       const std::string &content);

/** Slurp @p path (NotFound-coded when it does not exist). */
Expected<std::string> readFileToString(const std::string &path);

/** True if @p path exists (any file type). */
bool pathExists(const std::string &path);

/**
 * A durable append-only line log. append() writes the full line (a
 * trailing '\n' is added) with a single write() and fsyncs before
 * returning, so an acknowledged record survives power loss.
 *
 * Failure semantics: a short write or I/O error mid-record would
 * leave a torn line that corrupts the *next* record too (the log
 * grows by concatenation). append() therefore rolls the file back
 * to the record boundary with ftruncate() before reporting the
 * typed error (Resource for ENOSPC-class failures, ShortWrite when
 * the kernel stopped early); if even the rollback fails the log is
 * marked torn and refuses further appends rather than silently
 * interleaving garbage.
 */
class AppendLog
{
  public:
    AppendLog() = default;
    ~AppendLog() { close(); }

    AppendLog(const AppendLog &) = delete;
    AppendLog &operator=(const AppendLog &) = delete;

    /** Open (creating if needed) @p path for durable appends. A
     *  newly created log fsyncs its directory so the file's
     *  existence is as durable as its contents. */
    Status open(const std::string &path);

    /** Append one record; @p line must not contain '\n'. */
    Status append(const std::string &line);

    bool isOpen() const { return fd_ >= 0; }

    /** A failed append could not be rolled back; the tail may hold
     *  a torn record and the log refuses further appends. */
    bool torn() const { return torn_; }

    void close();

  private:
    int fd_ = -1;
    std::string path_;
    uint64_t size_ = 0;   ///< committed record-boundary offset
    bool torn_ = false;
};

} // namespace xbs

#endif // XBS_COMMON_FS_HH
