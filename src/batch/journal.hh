/**
 * @file
 * The sweep journal: everything xbatch needs to survive its own
 * death.
 *
 * A sweep directory contains:
 *
 *   manifest.json   the full job matrix and supervisor settings,
 *                   written once (atomically) before the first
 *                   launch; --resume re-reads the matrix from here
 *                   so a resumed sweep runs exactly the same jobs.
 *   journal.jsonl   one line per job transition, fsync'd as written:
 *                     {"seq":N,"event":"launch","job":J,"attempt":A}
 *                     {"seq":N,"event":"result","job":J,"attempt":A,
 *                      "class":"ok|usage|...","exit":E,"signal":S,
 *                      "seconds":T, metrics...}
 *                     {"seq":N,"event":"final","job":J,
 *                      "class":"...","attempts":A, metrics...}
 *   report.json     the aggregate report (see batch/report.hh),
 *                   rewritten atomically when the sweep finishes
 *                   or drains.
 *
 * Replay semantics (resume): a job whose last event is "final" is
 * complete and is NOT re-executed — its recorded class and metrics
 * flow into the resumed report. A "launch" without a matching
 * "result" means the supervisor died with the child in flight: the
 * job is re-queued (the attempt did not consume a retry, since its
 * outcome is unknown). A torn final line — the crash landed mid
 * write — is detected by its missing newline / malformed JSON and
 * ignored.
 */

#ifndef XBS_BATCH_JOURNAL_HH
#define XBS_BATCH_JOURNAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "batch/job.hh"
#include "common/fs.hh"
#include "common/json.hh"
#include "common/status.hh"

namespace xbs
{

/** Supervisor settings recorded alongside the matrix. */
struct SweepManifest
{
    int version = 1;
    std::string xbsim;        ///< child binary path
    unsigned workers = 2;
    double timeoutSec = 300.0;
    unsigned maxRetries = 1;
    unsigned backoffMs = 200;
    /// Per-job interval-stats window (0: off). Optional in the file
    /// so pre-existing manifests still parse; recorded so a resumed
    /// sweep relaunches children with the same observation flags.
    uint64_t intervalCycles = 0;
    std::vector<JobSpec> jobs;
};

/** One journal line. */
struct JournalEvent
{
    enum class Kind
    {
        Launch,
        Result,
        Final,
    };

    Kind kind = Kind::Launch;
    uint64_t seq = 0;
    int job = -1;
    int attempt = 0;           ///< 1-based; Final carries total
    JobClass cls = JobClass::Ok;
    int exitCode = -1;
    int termSignal = 0;
    double seconds = 0.0;
    bool hasMetrics = false;
    JobMetrics metrics;
    bool hasUsage = false;
    JobUsage usage;            ///< child rusage (wait4) if captured
    std::string note;
};

/** Journal metrics serialization; doubles are written at full
 *  precision so a replayed metric is bit-identical to the simulated
 *  one. */
void writeJobMetricsFields(JsonWriter &jw, const JobMetrics &m);
JobMetrics readJobMetricsFields(const JsonValue &v);

const char *journalEventKindName(JournalEvent::Kind kind);

class SweepJournal
{
  public:
    /// @{ Manifest (atomic whole-file).
    static Status writeManifest(const std::string &dir,
                                const SweepManifest &manifest);
    static Expected<SweepManifest> readManifest(const std::string &dir);
    /// @}

    /** Open (append) the journal in @p dir; creates it if missing. */
    Status open(const std::string &dir);

    /** Append one event, fsync'd before returning; stamps
     *  event.seq. */
    Status append(JournalEvent &event);

    /**
     * Read back every complete event in @p dir's journal. A torn or
     * malformed *final* line is ignored (crash mid-append); a
     * malformed line in the middle, an unknown event, or an unknown
     * class is Corrupt.
     */
    static Expected<std::vector<JournalEvent>> replay(
        const std::string &dir);

    /** Continue sequence numbers after the replayed events. */
    void seedSeq(uint64_t last_seq) { seq_ = last_seq; }

    const std::string &dir() const { return dir_; }
    bool isOpen() const { return log_.isOpen(); }

    static std::string manifestPath(const std::string &dir);
    static std::string journalPath(const std::string &dir);

  private:
    AppendLog log_;
    std::string dir_;
    uint64_t seq_ = 0;
};

} // namespace xbs

#endif // XBS_BATCH_JOURNAL_HH
