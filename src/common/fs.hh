/**
 * @file
 * Filesystem helpers for the tools.
 *
 * writeFileAtomic is the one durable write: write to
 * "<path>.tmp.<pid>", fsync the file, rename() over the target, fsync
 * the directory. A reader sees either the old or the new complete
 * file, never a torn one, even if the writer dies mid-write; xbatch
 * writes report.json this way. Each step carries a crashPoint() hook
 * (common/crashpoint.hh), so a test can kill a writer there and read
 * back what it left.
 */

#ifndef XBS_COMMON_FS_HH
#define XBS_COMMON_FS_HH

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

} // namespace xbs

#endif // XBS_COMMON_FS_HH
