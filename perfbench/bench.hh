/**
 * @file
 * perfbench: the end-to-end and per-layer benchmark of xbcsim.
 *
 * Two workloads drive the simulator through its public entry points:
 * in-process (workload generator, trace reader/writer, makeFrontend +
 * Frontend::run) and sweep (the xbatch sweep CLI). Every simulated result is
 * checked; host time is the only thing measured. See README.md for
 * the metric tables and why each workload exists.
 */

#ifndef XBS_PERFBENCH_BENCH_HH
#define XBS_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/status.hh"
#include "sim/config.hh"
#include "trace/trace.hh"

namespace xbs::perfbench
{

/** Host seconds on the steady clock (span timestamps). */
inline double
nowSec()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Spans recorded from the benchmark's own code around each call into
 * a layer. Kept in memory and written at exit as Chrome trace-event
 * JSON. A disabled log records nothing, so the untraced run pays one
 * branch per call.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;   ///< the call, e.g. "Frontend::run"
        std::string layer;  ///< src/ module name, or "bench"
        std::string cell;   ///< cell label the span belongs to
        double start = 0.0;
        double end = 0.0;
        int parent = -1;    ///< index of the enclosing span, or -1
        uint64_t items = 0; ///< records, uops or calls it covered
    };

    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span that later spans nest in. */
    void open(const std::string &name, const std::string &layer,
              const std::string &cell);

    /** Close the innermost open span. */
    void close(uint64_t items = 0);

    /** Record a closed leaf span under the innermost open span. */
    void add(const std::string &name, const std::string &layer,
             const std::string &cell, double start, double end,
             uint64_t items = 0);

    const std::vector<Span> &spans() const { return spans_; }

    /** Per-layer self time: span duration minus the part covered by
     *  its child spans, summed per layer (sorted by layer name). */
    std::vector<std::pair<std::string, double>> selfTimes() const;

    void writeChromeJson(std::ostream &os) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/**
 * How slow the shared host runs right now, from a fixed kernel that is
 * part of the benchmark, not of the simulator: random loads from a
 * 16 MB table with a branch on each loaded value. Other tenants slow
 * the in-process simulator by up to 1.8x for tens of seconds at a
 * time, and this kernel by about as much at the same moments
 * (README.md, Noise), so the in-process workload divides each of its
 * times by the factor measured around it.
 */
class HostSpeed
{
  public:
    HostSpeed();

    /** Time the kernel once: its seconds ÷ kQuietSec. */
    double factor();

    /** Resident size of the table, counted out of peak_rss_mb. */
    uint64_t tableKb() const { return table_.size() * 8 / 1024; }

    /** The kernel's time on a quiet host (4-vCPU Xeon, 2 MB L2 per
     *  core), the unit the metrics are reported in. */
    static constexpr double kQuietSec = 0.009;

  private:
    std::vector<uint64_t> table_;
    uint64_t state_ = 1;
    uint64_t checksum_ = 0;
};

/** One simulated cell: a frontend configuration over one trace. */
struct CellResult
{
    std::string label;     ///< "xbc/gcc@32768"
    std::string workload;
    std::string frontend;  ///< "ic" | "dc" | "tc" | "bbtc" | "xbc"
    uint64_t capacity = 0;

    /// @{ Trace totals the run is checked against.
    uint64_t traceUops = 0;
    uint64_t traceRecords = 0;
    /// @}

    /// @{ Simulated results read from the stat tree after run().
    uint64_t cycles = 0;
    uint64_t deliveryCycles = 0;
    uint64_t buildCycles = 0;
    uint64_t stallCycles = 0;
    uint64_t deliveryUops = 0;
    uint64_t buildUops = 0;
    uint64_t recordsSeen = 0;
    uint64_t attribUops = 0;    ///< sum of attrib.uops.*
    uint64_t attribCycles = 0;  ///< sum of attrib.cycles.*
    double bandwidth = 0.0;
    double missRate = 0.0;
    /// @}

    /** Stat counters for the per-layer metrics (path, value). */
    std::vector<std::pair<std::string, uint64_t>> counts;

    /** Host seconds inside Frontend::run (xbatch: child lifetime). */
    double runSec = 0.0;

    /** HostSpeed factor around the cell's part. */
    double hostFactor = 1.0;

    /// @{ xbatch cells: the child's peak RSS and user + sys CPU.
    uint64_t rssKb = 0;
    double cpuSec = 0.0;
    /// @}

    /** Failed checks, one line each; empty when the cell is good. */
    std::vector<std::string> failures;

    /** False when the cell crashed, errored or left no result, as
     *  opposed to finishing with a result that failed a check. */
    bool completed = true;

    uint64_t simUops() const { return deliveryUops + buildUops; }

    /** Counter by stat path (0 when not collected). */
    uint64_t count(const std::string &path) const;
};

/**
 * The five output identities of an in-process cell: uops and records
 * against the trace, the per-cycle contract of docs/MODEL.md, and
 * both attribution sums. Appends one line per failure to
 * cell.failures.
 */
void checkCell(CellResult &cell);

/** SHA-256 over every cell's cycles, deliveryUops, buildUops,
 *  bandwidth and missRate (%.17g), in cell order. */
std::string simDigest(const std::vector<CellResult> &cells);

/** Cells attempted and failed over a run, and the digest every
 *  repetition must reproduce. */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool completed = true;  ///< every cell ran to the end
    std::map<std::string, std::string> failedCells;  ///< label: why
    std::string digest;
    bool digestMismatch = false;

    /** Count @p cells (a failed cell is named with its first
     *  failure). */
    void addCells(const std::vector<CellResult> &cells);

    /** addCells, and compare the repetition's digest with the
     *  first one's. */
    void addRep(const std::vector<CellResult> &cells);
};

/// @{ Metric names and units, in BENCHMARK.json order.
const std::vector<std::pair<const char *, const char *>> &
endToEndMetrics();
const std::vector<std::pair<const char *, const char *>> &
perLayerMetrics();
/// @}

/** A frontend configuration of a cell. */
struct CellConfig
{
    FrontendKind kind;
    uint64_t capacity;
};

/** Cells of one kind: every config over every workload's trace. */
struct Group
{
    std::string name;                    ///< "xbc-paper", "xbc-small", "replay"
    std::vector<std::string> workloads;  ///< catalog names
    std::vector<CellConfig> configs;     ///< run over every trace
    bool replay = false;  ///< load .xbt files instead of generating
};

/** The in-process workload: its groups, run in order. */
struct Plan
{
    std::string name;
    std::vector<Group> groups;
    uint64_t insts = 0;  ///< instructions per trace
};

/** The plan of the in-process workload; false for other names. */
bool planFor(const std::string &workload, Plan *plan);

/**
 * Executor seed of catalog workload @p name under benchmark seed
 * @p seed; 0 keeps the catalog's, so the catalog trace results. The
 * program itself is always the catalog's: re-seeding its profile
 * changed a repetition's cost by up to a factor of 1.65 between seeds.
 */
uint64_t executorSeed(const std::string &name, uint64_t seed);

/** buildProgram + Executor::run, each recorded as a span. */
Trace generateTrace(const std::string &name, uint64_t seed,
                    uint64_t insts, SpanLog &spans);

/** Simulate @p config over @p trace and read back the result;
 *  @p setup_sec gets the makeFrontend time. */
CellResult runCell(const Trace &trace, const std::string &workload,
                   const CellConfig &config, SpanLog &spans,
                   double *setup_sec);

/** Process CPU seconds (user + sys) of this process so far. */
double cpuNowSec();

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * One repetition of a workload. Its time is kept per part: one part
 * per trace of each group for the in-process workload (trace set-up
 * plus its cells), one part for a whole xbatch run.
 */
struct RepResult
{
    struct Part
    {
        double wallSec = 0.0;
        double setupSec = 0.0;  ///< before and outside Frontend::run
        double cpuSec = 0.0;    ///< sweep: xbatch and its children
        double hostFactor = 1.0;  ///< mean HostSpeed before and after
        std::string group;      ///< in-process: the Group's name
    };

    double wallSec = 0.0;  ///< the whole repetition (atQuietSpeed: its parts)
    uint64_t peakRssKb = 0;
    std::vector<Part> parts;
    std::vector<CellResult> cells;
};

/**
 * The end-to-end metrics over a run's repetitions, in
 * endToEndMetrics() order: each is the median over @p reps of the
 * repetition's value (its parts' wall and CPU time, its cells' uops ÷
 * their Frontend::run time), setup_s the median of @p setups, and
 * peak_rss_mb the maximum.
 */
std::vector<double> endToEndValues(const std::vector<RepResult> &reps,
                                   const std::vector<double> &setups);

/** @p reps with every time divided by the HostSpeed factor measured
 *  around it: seconds as on a quiet host. */
std::vector<RepResult> atQuietSpeed(std::vector<RepResult> reps);

/** Path of workload @p name's prepared trace under @p work_dir. */
std::string replayTracePath(const std::string &work_dir,
                            const std::string &name, uint64_t seed);

/** One repetition of the in-process plan; @p speed is sampled before
 *  the first part and after each part. */
RepResult runPlanRep(const Plan &plan, uint64_t seed,
                     const std::string &work_dir, HostSpeed &speed,
                     SpanLog &spans);

/** Per-layer timing of XbcDataArray insert and lookup over a trace's
 *  own XB stream (the component replay). */
struct ArrayReplay
{
    double insertSec = 0.0;
    double lookupSec = 0.0;
    uint64_t inserts = 0;
    uint64_t lookups = 0;
};

ArrayReplay replayXbStream(const Trace &trace, uint64_t capacity);

/// @{ The sweep workload (sweep.cc).

/** Catalog workloads of the sweep: the four xbc-paper workloads for
 *  seed 0, else two SPECint95, one SYSmark32 and one Games workload
 *  picked by @p seed, each from suite-mates of similar cost. */
std::vector<std::string> sweepWorkloads(uint64_t seed);

/** The sweep matrix: frontends tc and xbc x these capacities. */
const std::vector<uint64_t> &sweepCapacities();

/** xbatch worker processes. */
constexpr unsigned kSweepWorkers = 2;

/** Where the sweep finds its binaries and writes its outputs. */
struct SweepEnv
{
    std::string xbatch;
    std::string xbsim;
    std::string outDir;  ///< recreated by every run
};

/** Per-sweep results beyond the cells (from report.json). */
struct SweepStats
{
    unsigned retries = 0;
    double childCpuSec = 0.0;
    uint64_t childRssKbMax = 0;
};

/**
 * Run one xbatch sweep (the sweep matrix over @p workloads) and check
 * its report.json. Cells that crashed, errored, went missing or failed
 * a check carry failures; an xbatch that could not be started, or ran
 * past its deadline, returns an error.
 */
Expected<RepResult> runSweepRep(const SweepEnv &env,
                                const std::vector<std::string> &workloads,
                                uint64_t insts, SweepStats *stats);

/** Check a parsed report.json and turn its jobs into cells. */
std::vector<CellResult> cellsFromReport(const JsonValue &report,
                                        std::size_t expected_jobs);
/// @}

} // namespace xbs::perfbench

#endif // XBS_PERFBENCH_BENCH_HH
