/**
 * @file
 * xbsim - the command-line driver: run any of the five frontends over
 * any catalog workload (or a trace file) with the structure geometry
 * set from flags, and dump results as text or JSON.
 *
 * Examples:
 *   xbsim --frontend=xbc --workload=gcc --insts=2000000
 *   xbsim --frontend=tc --capacity=65536 --ways=2 --json
 *   xbsim --frontend=xbc --trace=run.xbt --stats
 *   xbsim --frontend=xbc --interval-stats=10000
 *   xbsim --list-workloads
 */

#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>

#include "common/args.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/signals.hh"
#include "common/status.hh"
#include "prof/build_info.hh"
#include "prof/host_counters.hh"
#include "prof/phase_profiler.hh"
#include "sim/cell.hh"
#include "sim/config.hh"
#include "sim/runner.hh"
#include "trace/trace_io.hh"
#include "verify/auditor.hh"
#include "verify/inject.hh"
#include "workload/catalog.hh"

using namespace xbs;

namespace
{

/**
 * Graceful shutdown (see docs/MODEL.md "Batch execution"): SIGINT or
 * SIGTERM raises this flag, the frontend run loop notices it at the
 * next cycle boundary, and main() flushes interval stats and the
 * audit report before exiting with kExitInterrupted — so a
 * supervisor-timed-out job still leaves usable partial output.
 */
volatile std::sig_atomic_t g_stop = 0;

void
listWorkloads()
{
    std::printf("%-10s %-10s\n", "workload", "suite");
    std::printf("%-10s %-10s\n", "--------", "-----");
    for (const auto &e : workloadCatalog())
        std::printf("%-10s %-10s\n", e.name.c_str(), e.suite.c_str());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string frontend = "xbc";
    std::string workload = "gcc";
    std::string trace_path;
    uint64_t insts = 0;
    uint64_t capacity = 32768;
    uint64_t ways = 0;
    uint64_t xbtb_entries = 8192;
    uint64_t fetch_xbs = 2;
    bool promotion = true;
    bool set_search = true;
    bool path_assoc = false;
    bool json = false;
    bool stats = false;
    bool list = false;
    uint64_t interval = 0;
    std::string interval_out = "intervals.jsonl";
    bool audit = false;
    uint64_t audit_interval = 100000;
    std::string inject_spec;
    uint64_t inject_seed = 1;
    bool profile = false;
    bool build_info_only = false;

    ArgParser args("xbsim",
                   "trace-driven frontend simulator (XBC, HPCA 2000)");
    args.addString("frontend", &frontend,
                   "structure to simulate: ic|dc|tc|bbtc|xbc");
    args.addString("workload", &workload,
                   "catalog workload name (see --list-workloads)");
    args.addString("trace", &trace_path,
                   "replay a binary .xbt trace instead of a workload");
    args.addUint("insts", &insts,
                 "instructions to simulate (0 = XBS_TRACE_LEN or 2M)");
    args.addUint("capacity", &capacity, "structure capacity in uops");
    args.addUint("ways", &ways,
                 "associativity (0 = structure default)");
    args.addUint("xbtb-entries", &xbtb_entries, "XBTB entries (xbc)");
    args.addUint("fetch-xbs", &fetch_xbs, "XB pointers/cycle (xbc)");
    args.addBool("promotion", &promotion, "branch promotion (xbc)");
    args.addBool("set-search", &set_search, "set search (xbc)");
    args.addBool("path-assoc", &path_assoc,
                 "path-associative trace cache (tc)");
    args.addBool("json", &json, "emit results as JSON");
    args.addBool("stats", &stats, "dump the full statistics tree");
    args.addBool("list-workloads", &list, "list the catalog and exit");
    args.addUint("interval-stats", &interval,
                 "emit windowed stat deltas every N cycles (0 = off)");
    args.addString("interval-out", &interval_out,
                   "interval JSONL output path");
    args.addBool("audit", &audit,
                 "attach the invariant auditor + delivery oracle "
                 "(exit 3 on violations)");
    args.addUint("audit-interval", &audit_interval,
                 "cycles between structural audits (0 = end only)");
    args.addString("inject", &inject_spec,
                   "fault injection spec: kind[@period],... with kind "
                   "in xbtb-flip|xfu-drop|line-kill|slot-corrupt|"
                   "trace-flip|trace-trunc|hang");
    args.addUint("inject-seed", &inject_seed,
                 "deterministic fault-injection seed");
    args.addBool("profile", &profile,
                 "time simulator phases (predict/fetch/build/array/"
                 "trace-decode) on the host clock");
    args.addBool("build-info", &build_info_only,
                 "print build provenance as JSON and exit");
    if (!args.parse(argc, argv))
        return 0;

    if (build_info_only) {
        JsonWriter jw(std::cout);
        jw.beginObject();
        writeBuildInfoJson(jw, buildInfo());
        jw.endObject();
        std::cout << "\n";
        return 0;
    }

    if (list) {
        listWorkloads();
        return 0;
    }

    // Install the shutdown flag early so a SIGTERM that lands during
    // trace generation is remembered: the run loop then exits on its
    // first cycle and the partial-output path below still runs.
    installStopHandlers(&g_stop);

    // The geometry an xbatch cell with these flags gets; the XBC and
    // TC flags below refine it.
    RunSpec spec;
    spec.frontend = frontend;
    spec.capacity = capacity;
    spec.ways = ways;

    Expected<SimConfig> spec_config = spec.config();
    if (!spec_config.ok())
        xbs_fatal("%s", spec_config.status().toString().c_str());
    SimConfig config = spec_config.take();
    config.xbc.xbtbEntries = (unsigned)xbtb_entries;
    config.xbc.fetchXbsPerCycle = (unsigned)fetch_xbs;
    config.xbc.promotionEnabled = promotion;
    config.xbc.setSearchEnabled = set_search;
    config.tc.pathAssociative = path_assoc;

    setLogQuiet(json);

    if (Status st = validateConfig(config); !st.isOk()) {
        std::fprintf(stderr, "xbsim: %s\n", st.toString().c_str());
        return kExitUsage;
    }

    std::unique_ptr<FaultInjector> injector;
    if (!inject_spec.empty()) {
        auto plan = parseInjectSpec(inject_spec);
        if (!plan.ok()) {
            std::fprintf(stderr, "xbsim: %s\n",
                         plan.status().toString().c_str());
            return kExitUsage;
        }
        injector = std::make_unique<FaultInjector>(plan.take(),
                                                   inject_seed);
    }

    auto fe = makeFrontend(config);

    // Host-time profiling (src/prof): phase timers inside the run
    // loops plus a "trace-decode" phase around input materialization.
    PhaseProfiler prof;
    unsigned ph_decode = PhaseProfiler::kNoPhase;
    if (profile) {
        ph_decode = prof.definePhase("trace-decode");
        fe->attachProfiler(&prof);
    }

    // Observability: opt-in interval windows over the stat tree,
    // each with the host throughput since the meter's reset.
    ThroughputMeter meter;
    std::optional<IntervalStream> intervals;
    if (interval > 0) {
        intervals.emplace(*fe, interval, interval_out, meter);
        if (!intervals->ok())
            xbs_fatal("cannot open '%s'", interval_out.c_str());
    }

    std::optional<Trace> trace_opt;
    {
        ScopedPhase decode_timer(profile ? &prof : nullptr, ph_decode);
        if (!trace_path.empty()) {
            Expected<Trace> tr = readTraceEx(trace_path);
            if (!tr.ok()) {
                std::fprintf(stderr, "xbsim: %s\n",
                             tr.status().toString().c_str());
                return kExitData;
            }
            trace_opt.emplace(tr.take());
        } else {
            if (!findWorkloadPtr(workload)) {
                std::fprintf(stderr,
                             "xbsim: unknown workload '%s' "
                             "(see --list-workloads)\n",
                             workload.c_str());
                return kExitUsage;
            }
            trace_opt.emplace(makeCatalogTrace(workload, insts));
        }
        if (injector && injector->plan().hasTraceActions()) {
            Trace injected = injector->prepareTrace(*trace_opt);
            trace_opt.emplace(std::move(injected));
        }
    }
    const Trace &trace = *trace_opt;
    const std::string trace_name = trace.name();
    const uint64_t total_uops = trace.totalUops();

    std::unique_ptr<InvariantAuditor> auditor;
    if (audit) {
        AuditorOptions opts;
        opts.interval = audit_interval;
        auditor = std::make_unique<InvariantAuditor>(opts);
        auditor->attach(*fe, trace);
    }
    if (injector)
        fe->attachCycleObserver(injector.get());

    fe->attachStopFlag(&g_stop);

    meter.reset();
    fe->run(trace);

    // A raised flag means SIGINT/SIGTERM cut the run short at a
    // cycle boundary: still flush everything below (interval stats,
    // audit report, partial results) but report the distinct
    // interrupted exit code.
    const bool interrupted = g_stop != 0;
    resetStopHandlers();

    fe->finishObservation();
    if (auditor)
        auditor->finishRun(*fe);

    // Exit-code gating: under injection only oracle violations count
    // (the injected corruption legitimately trips structural checks;
    // what must never happen is a change in the delivered stream).
    // An interrupted run trumps the audit verdict: a partial run
    // legitimately fails end-of-run completeness checks, and the
    // supervisor needs to see "interrupted with partial output".
    int exit_code = kExitOk;
    std::size_t gated_violations = 0;
    if (auditor) {
        gated_violations =
            injector ? auditor->countOf(AuditViolation::Kind::Oracle)
                     : auditor->violations().size();
        if (gated_violations)
            exit_code = kExitAudit;
    }
    if (interrupted)
        exit_code = kExitInterrupted;

    const auto &m = fe->metrics();
    const ThroughputMeter::Rates overall = meter.overall(
        m.cycles.value(),
        m.deliveryUops.value() + m.buildUops.value(),
        m.traceRecords.value());
    if (json) {
        JsonWriter jw(std::cout);
        jw.beginObject();
        writeResultFields(jw, frontend, trace_name, capacity,
                          total_uops, *fe, overall);
        if (profile) {
            jw.beginObject("profile");
            jw.field("totalEstimatedMs",
                     (double)prof.totalEstimatedNs() / 1e6);
            prof.writeJson(jw, "phases");
            jw.endObject();
        }
        if (interrupted)
            jw.field("interrupted", true);
        if (auditor) {
            jw.field("auditViolations",
                     (uint64_t)auditor->violations().size());
            jw.field("auditGatedViolations",
                     (uint64_t)gated_violations);
        }
        if (injector)
            jw.field("injections", injector->injections());
        if (stats)
            fe->statRoot().dumpJson(jw, /*as_member=*/true);
        jw.endObject();
        if (auditor && !auditor->ok())
            auditor->report(std::cerr);
    } else {
        std::printf("%s on '%s' (%llu uops, %llu cycles)%s\n",
                    frontend.c_str(), trace_name.c_str(),
                    (unsigned long long)total_uops,
                    (unsigned long long)m.cycles.value(),
                    interrupted ? "  [interrupted, partial]" : "");
        std::printf("  bandwidth: %.2f uops/cycle   miss rate: "
                    "%.2f%%   overall: %.2f uops/cycle\n",
                    m.bandwidth(), 100.0 * m.missRate(),
                    m.overallIpc());
        if (injector) {
            std::printf("  injected %llu fault(s): %s\n",
                        (unsigned long long)injector->injections(),
                        injector->summary().c_str());
        }
        const HostCounters hc = HostCounters::self();
        std::printf("  host: %.2fs wall, %.2fs cpu, %llu KiB peak "
                    "RSS, %.2f Muops/s\n",
                    overall.wallSeconds, hc.cpuSec(),
                    (unsigned long long)hc.maxRssKb,
                    overall.uopsPerSec / 1e6);
        if (profile)
            std::fputs(prof.render().c_str(), stdout);
        if (auditor)
            auditor->report(std::cout);
        if (stats)
            fe->statRoot().dump(std::cout);
    }
    return exit_code;
}
