/**
 * @file
 * Per-process heartbeats: the simulator's live progress channel.
 *
 * A running xbsim periodically (on a host-time cadence, checked every
 * few thousand simulated cycles) rewrites one small JSON file with
 * its current progress: uops retired, the trace's total, the phase it
 * is in, host-side throughput, RSS, and a monotonic sequence number.
 * The write is atomic (write-temp + rename), so a concurrent reader —
 * the sweep watchdog, xbtop — sees either the previous or the new
 * complete record, never a torn one, even across a crash mid-rename
 * (the stale temp file is simply ignored and later overwritten).
 *
 * The record is advisory telemetry, not durable state: writes are
 * NOT fsync'd (a heartbeat that dies with the host is worthless
 * anyway), and a malformed or missing file is an Expected error the
 * reader maps to "no heartbeat yet".
 *
 * Sequence numbers never go backwards across attempts: a writer
 * opened on a path that already holds a record (a retried job reusing
 * its predecessor's file) continues numbering after it.
 */

#ifndef XBS_OBS_HEARTBEAT_HH
#define XBS_OBS_HEARTBEAT_HH

#include <chrono>
#include <csignal>
#include <cstdint>
#include <string>

#include "common/status.hh"

namespace xbs
{

class Frontend;

/** One heartbeat: the progress of one simulator process, right now. */
struct HeartbeatRecord
{
    uint64_t seq = 0;        ///< monotonic per path (across attempts)
    int64_t pid = 0;         ///< writer's process id
    std::string phase;       ///< "start"|"decode"|"restore"|"sim[:mode]"|"flush"|"done"
    uint64_t uops = 0;       ///< uops retired (delivery + build) so far
    uint64_t totalUops = 0;  ///< estimated total from the trace (0: unknown)
    uint64_t cycles = 0;     ///< simulated cycles so far
    double uopsPerSec = 0.0; ///< host rate over the last beat window
    double wallSeconds = 0.0;///< host seconds since the writer started
    uint64_t rssKb = 0;      ///< current peak resident set, KiB
    bool done = false;       ///< final heartbeat of this process
    /** Checkpoint path this run restored warm state from (empty =
     *  cold start). Lets a watcher tell a warm run's head start from
     *  a cold run's genuine progress. */
    std::string restoredFrom;
};

/** Serialize @p rec as one compact JSON object. */
std::string renderHeartbeat(const HeartbeatRecord &rec);

/** Inverse of renderHeartbeat. */
Expected<HeartbeatRecord> parseHeartbeat(const std::string &text);

/** Read and parse the heartbeat at @p path ("no heartbeat yet" comes
 *  back as an error Status, which readers treat as absence). */
Expected<HeartbeatRecord> readHeartbeat(const std::string &path);

/**
 * Atomic heartbeat publisher. Construction reads any record already
 * at @p path and continues its sequence numbering, so a retried
 * attempt's heartbeats never appear to go backwards to a watcher.
 */
class HeartbeatWriter
{
  public:
    explicit HeartbeatWriter(std::string path);

    /** Stamp seq/pid/wallSeconds into @p rec and publish it. */
    Status write(HeartbeatRecord &rec);

    uint64_t seq() const { return seq_; }
    const std::string &path() const { return path_; }

  private:
    using Clock = std::chrono::steady_clock;

    std::string path_;
    uint64_t seq_ = 0;
    Clock::time_point start_;
};

/**
 * The xbsim-side emitter: owns a HeartbeatWriter and decides *when*
 * to publish. During run() it is attached as a cycle observer and
 * checks the host clock every few thousand cycles (a clock read is
 * ~20ns; the cadence keeps the overhead unmeasurable); outside the
 * run loop the driver forces beats at phase transitions via beat().
 *
 * Not a CycleObserver subclass on purpose: frontend.hh must not
 * depend on obs, so xbsim wraps onCycle in a tiny adapter.
 */
class HeartbeatEmitter
{
  public:
    /** @param period_sec host seconds between beats (>= 0.01). */
    HeartbeatEmitter(std::string path, double period_sec);

    /** Set the phase reported by subsequent beats ("decode", ...). */
    void setPhase(std::string phase) { phase_ = std::move(phase); }

    /** Total-uops estimate, once the trace is materialized. */
    void setTotalUops(uint64_t total) { totalUops_ = total; }

    /** Checkpoint path reported by subsequent beats (warm starts). */
    void
    setRestoredFrom(std::string path)
    {
        restoredFrom_ = std::move(path);
    }

    /** Publish a beat immediately (phase transitions, final flush).
     *  @param fe metrics source; nullptr before the run starts. */
    void beat(const Frontend *fe, bool done = false);

    /** Cycle-cadence hook: publishes when the period has elapsed. */
    void onCycle(const Frontend &fe);

    double periodSec() const { return periodSec_; }
    const HeartbeatWriter &writer() const { return writer_; }

  private:
    using Clock = std::chrono::steady_clock;

    void publish(uint64_t uops, uint64_t cycles, const char *mode,
                 bool done);

    HeartbeatWriter writer_;
    double periodSec_;
    std::string phase_ = "start";
    std::string restoredFrom_;
    uint64_t totalUops_ = 0;
    uint64_t ticks_ = 0;
    Clock::time_point lastBeat_;
    uint64_t lastUops_ = 0;
    bool everBeat_ = false;
};

} // namespace xbs

#endif // XBS_OBS_HEARTBEAT_HH
