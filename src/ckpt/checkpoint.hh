/**
 * @file
 * The live-point checkpoint container: a self-describing, versioned
 * binary file holding the complete warm microarchitectural state of
 * one frontend at a cycle boundary, so sweeps that vary only
 * downstream parameters can skip warmup ("live-points", the SMARTS /
 * SimPoint checkpointing idea applied to this simulator).
 *
 * On-disk layout (all integers little-endian):
 *
 *     File    := Header Section* Trailer
 *     Header  := magic[8] = "XBCKPT1\n"   u32 formatVersion = 1
 *     Section := u16 nameLen (>0)  name bytes
 *                u64 payloadLen    payload bytes
 *                u32 crc32(payload)
 *     Trailer := u16 0 (sentinel)
 *                u8[32] sha256 of every byte from the start of the
 *                       file through the sentinel (the guard hash)
 *
 * Integrity: every byte of the file is covered either by the
 * magic/version check, a section CRC, or the guard hash (a flip
 * inside the stored hash itself makes the recomputed hash mismatch).
 * A single bit flip anywhere is therefore detected by construction —
 * the property the ckpt-flip fault-injection mode asserts.
 *
 * Every failure mode — missing file, short file, bad magic, version
 * skew, truncated section, CRC mismatch, guard-hash mismatch,
 * malformed section payload, build incompatibility — is reported as
 * a typed Status (NotFound / Corrupt), never a crash or a silent
 * partial restore.
 */

#ifndef XBS_CKPT_CHECKPOINT_HH
#define XBS_CKPT_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/serial.hh"
#include "common/histogram.hh"
#include "common/stats.hh"
#include "common/status.hh"

namespace xbs
{

/** Magic + format version of the checkpoint container. */
extern const char kCkptMagic[8]; // "XBCKPT1\n"
constexpr uint32_t kCkptFormatVersion = 1;

/**
 * Identity of the run a checkpoint was cut from. Everything here is
 * verified on restore: a checkpoint must only ever resume the exact
 * (spec, trace, build) it was taken under — anything else is Corrupt
 * data, not a best-effort warm start.
 *
 * Build provenance is carried as plain fields (mirroring
 * prof/BuildInfo) so this library depends only on common.
 */
struct CkptMeta
{
    std::string frontend;    ///< frontend kind flag ("xbc", ...)
    std::string workload;
    uint64_t insts = 0;
    uint64_t capacity = 0;
    unsigned ways = 0;

    /// @{ Identity of the driving trace.
    std::string traceName;
    uint64_t numRecords = 0;
    uint64_t totalUops = 0;
    /// @}

    std::string specCanonical; ///< canonical argv, newline-joined
    std::string specDigest;    ///< sha256 hex of specCanonical

    uint64_t cycle = 0;        ///< completed cycles at the cut

    /// @{ Build provenance (prof/BuildInfo fields).
    std::string buildCompiler;
    std::string buildType;
    std::string buildFlags;
    std::string buildSource;
    std::string buildCxxStandard;
    bool buildSanitized = false;
    /// @}
};

std::string encodeCkptMeta(const CkptMeta &meta);
Expected<CkptMeta> decodeCkptMeta(const std::string &payload);

/** BuildInfo compatibility gate, same policy as prof's
 *  buildCompatible: buildType and sanitized must match exactly
 *  (metrics are only bit-comparable within one build flavor). */
Status checkCkptBuild(const CkptMeta &meta,
                      const std::string &build_type, bool sanitized);

/** Accumulates named sections and emits the container bytes. */
class CheckpointWriter
{
  public:
    void
    addSection(const std::string &name, std::string payload)
    {
        sections_.emplace_back(name, std::move(payload));
    }

    /** Render the container (header, sections, guard trailer). */
    std::string encode() const;

    /** encode() + writeFileAtomic (crash-safe: tmp, fsync, rename,
     *  directory fsync — the crash-point matrix covers this path). */
    Status writeTo(const std::string &path) const;

  private:
    std::vector<std::pair<std::string, std::string>> sections_;
};

/** A parsed checkpoint: sections by name, in file order. */
class CheckpointFile
{
  public:
    const std::string *
    section(const std::string &name) const
    {
        for (const auto &kv : sections_)
            if (kv.first == name)
                return &kv.second;
        return nullptr;
    }

    const std::vector<std::pair<std::string, std::string>> &
    sections() const
    {
        return sections_;
    }

  private:
    friend Expected<CheckpointFile>
    parseCheckpoint(const std::string &bytes);

    std::vector<std::pair<std::string, std::string>> sections_;
};

/** Parse container bytes; every defect is Corrupt with a cause and
 *  byte offset. */
Expected<CheckpointFile> parseCheckpoint(const std::string &bytes);

/** Read + parse a checkpoint file. A missing file is NotFound;
 *  everything else Corrupt. */
Expected<CheckpointFile> readCheckpointFile(const std::string &path);

/// @{ Generic stat-tree serialization. The walk is deterministic
///    (registration order) and self-describing: each stat's name and
///    kind are stored and verified on restore, so a checkpoint from
///    a different frontend or model version fails as Corrupt instead
///    of silently mis-assigning counters.
void saveStatTree(const StatGroup &group, CkptSink &sink);
Status loadStatTree(StatGroup &group, CkptSource &src);
/// @}

/// @{ Common-type helpers shared by the structure serializers.
void saveHistogram(const Histogram &h, CkptSink &sink);
void loadHistogram(Histogram &h, CkptSource &src);
/// @}

} // namespace xbs

#endif // XBS_CKPT_CHECKPOINT_HH
