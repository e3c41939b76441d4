/**
 * @file
 * Checkpoint I/O glue between the frontend state machinery
 * (Frontend::saveState/restoreState) and the container format
 * (src/ckpt): builds the identity meta from the run spec and trace,
 * writes live-points, and performs a fully verified restore.
 *
 * The restore contract is all-or-nothing: identity (spec, trace,
 * frontend kind, geometry) and build compatibility are checked
 * before any state is touched, and every failure is a typed Status
 * (NotFound for a missing file, Corrupt for everything else), never
 * a crash or a partially restored frontend.
 */

#ifndef XBS_SIM_CKPT_IO_HH
#define XBS_SIM_CKPT_IO_HH

#include <string>

#include "ckpt/checkpoint.hh"
#include "sim/config.hh"
#include "trace/trace.hh"

namespace xbs
{

/**
 * Identity meta for a checkpoint of @p spec over @p trace at
 * @p cycle, stamped with this binary's build provenance. A run
 * restored from a checkpoint is the same simulation cell as its cold
 * twin (the spec does not name the checkpoint), so a second-generation
 * checkpoint carries the same identity.
 */
CkptMeta makeCkptMeta(const RunSpec &spec, const Trace &trace,
                      uint64_t cycle);

/** Serialize @p fe (meta + all state sections) to container bytes. */
std::string encodeCheckpoint(const Frontend &fe, const CkptMeta &meta);

/** encodeCheckpoint + atomic write to @p path. */
Status writeCheckpoint(const Frontend &fe, const CkptMeta &meta,
                       const std::string &path);

/**
 * Verify @p file against (@p spec, @p trace, running build) and
 * restore @p fe from it. On failure the frontend may hold partially
 * restored counters and must be discarded (re-make it for a cold
 * start).
 */
Status restoreCheckpoint(Frontend &fe, const CheckpointFile &file,
                         const RunSpec &spec, const Trace &trace);

/** readCheckpointFile + restoreCheckpoint. */
Status restoreCheckpointPath(Frontend &fe, const std::string &path,
                             const RunSpec &spec, const Trace &trace);

} // namespace xbs

#endif // XBS_SIM_CKPT_IO_HH
