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
 *   xbsim --frontend=xbc --checkpoint-at=500000 --checkpoint-out=warm.xbckpt
 *   xbsim --frontend=xbc --restore-from=warm.xbckpt
 *   xbsim --frontend=xbc --verify-ckpt=500000
 *   xbsim --list-workloads
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>

#include "ckpt/checkpoint.hh"
#include "common/args.hh"
#include "common/fs.hh"
#include "common/interval_stats.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/signals.hh"
#include "common/status.hh"
#include "prof/build_info.hh"
#include "prof/host_counters.hh"
#include "prof/phase_profiler.hh"
#include "sim/ckpt_io.hh"
#include "sim/config.hh"
#include "sim/runner.hh"
#include "trace/trace_io.hh"
#include "verify/auditor.hh"
#include "verify/divergence.hh"
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
    uint64_t checkpoint_at = 0;
    std::string checkpoint_out;
    std::string restore_from;
    uint64_t verify_ckpt = 0;

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
                   "trace-flip|trace-trunc|hang|ckpt-flip");
    args.addUint("checkpoint-at", &checkpoint_at,
                 "cut a warm-state checkpoint at this cycle (0 = off)");
    args.addString("checkpoint-out", &checkpoint_out,
                   "checkpoint output path (default "
                   "<workload>.<frontend>.xbckpt)");
    args.addString("restore-from", &restore_from,
                   "restore warm state from a checkpoint before "
                   "simulating (exit 2 if missing/corrupt/mismatched)");
    args.addUint("verify-ckpt", &verify_ckpt,
                 "divergence oracle: checkpoint at this cycle, "
                 "restore into a fresh frontend, finish both runs, "
                 "and require bit-identical metrics (exit 2 on "
                 "divergence)");
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

    Expected<FrontendKind> kind = parseFrontendKind(frontend);
    if (!kind.ok())
        xbs_fatal("%s", kind.status().toString().c_str());

    SimConfig config;
    config.kind = kind.value();
    config.tc.capacityUops = (unsigned)capacity;
    config.xbc.capacityUops = (unsigned)capacity;
    config.dc.capacityUops = (unsigned)capacity;
    config.bbtc.blocks.capacityUops = (unsigned)capacity;
    if (ways) {
        config.tc.ways = (unsigned)ways;
        config.xbc.ways = (unsigned)ways;
        config.dc.ways = (unsigned)ways;
        config.bbtc.blocks.ways = (unsigned)ways;
    }
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

    // Observability: an opt-in interval sampler over the stat tree.
    std::unique_ptr<IntervalSampler> sampler;
    std::ofstream interval_os;
    if (interval > 0) {
        sampler = std::make_unique<IntervalSampler>(fe->statRoot(),
                                                    interval);
        interval_os.open(interval_out);
        if (!interval_os)
            xbs_fatal("cannot open '%s'", interval_out.c_str());
        sampler->setOutput(&interval_os);
        fe->attachSampler(sampler.get());
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

    // The spec identity a checkpoint of this run carries, and a
    // restored checkpoint is verified against. (Only the batch-layer
    // flags; a geometry mismatch in the extra flags is still caught
    // by the per-section size checks on restore.)
    RunSpec spec;
    spec.frontend = frontend;
    spec.workload = trace_path.empty() ? workload : trace_path;
    spec.insts = insts;
    spec.capacity = capacity;
    spec.ways = ways;

    // Divergence-oracle mode: a self-contained experiment (two full
    // in-process runs), not a simulation of this cell.
    if (verify_ckpt) {
        Expected<DivergenceReport> rep =
            runDivergenceOracle(config, spec, trace, verify_ckpt);
        if (!rep.ok()) {
            std::fprintf(stderr, "xbsim: %s\n",
                         rep.status().toString().c_str());
            return kExitData;
        }
        const DivergenceReport &r = rep.value();
        if (json) {
            JsonWriter jw(std::cout);
            jw.beginObject();
            jw.field("frontend", frontend);
            jw.field("workload", trace_name);
            jw.field("checkpointCycle", r.cutCycle);
            jw.field("checkpointBytes", r.checkpointBytes);
            jw.field("auditViolations", (uint64_t)r.auditViolations);
            jw.field("identical", r.identical);
            if (!r.detail.empty())
                jw.field("detail", r.detail);
            jw.endObject();
            std::cout << "\n";
        } else {
            std::printf("checkpoint divergence oracle: %s on '%s', "
                        "cut at cycle %llu (%llu bytes)\n",
                        frontend.c_str(), trace_name.c_str(),
                        (unsigned long long)r.cutCycle,
                        (unsigned long long)r.checkpointBytes);
            std::printf("  restore is %s\n",
                        r.identical ? "bit-exact" : "DIVERGENT");
            if (!r.detail.empty())
                std::printf("  %s\n", r.detail.c_str());
        }
        return r.identical ? kExitOk : kExitData;
    }

    // Warm start: restore checkpointed state before the run. Every
    // failure here is typed and exits with kExitData, so a bad
    // checkpoint never produces numbers.
    if (!restore_from.empty()) {
        Expected<std::string> raw = readFileToString(restore_from);
        if (!raw.ok()) {
            Status st = raw.status();
            st.withFile(restore_from);
            std::fprintf(stderr, "xbsim: %s\n",
                         st.toString().c_str());
            return kExitData;
        }
        std::string bytes = raw.take();
        if (injector && injector->plan().hasCkptActions())
            bytes = injector->prepareCheckpointBytes(bytes);
        Expected<CheckpointFile> ckpt = parseCheckpoint(bytes);
        Status restored =
            ckpt.ok() ? restoreCheckpoint(*fe, ckpt.value(), spec,
                                          trace)
                      : ckpt.status();
        if (!restored.isOk()) {
            restored.withFile(restore_from);
            std::fprintf(stderr, "xbsim: restore failed: %s\n",
                         restored.toString().c_str());
            return kExitData;
        }
        // Mandatory post-restore audit: one structural walk over the
        // restored structures before a single cycle is simulated on
        // them. A checkpoint that passes every integrity check but
        // decodes into invariant-violating state is still Corrupt.
        InvariantAuditor restore_audit;
        restore_audit.auditRestore(*fe, trace,
                                   fe->metrics().cycles.value());
        if (!restore_audit.violations().empty()) {
            restore_audit.report(std::cerr);
            std::fprintf(stderr,
                         "xbsim: restored state from '%s' violates "
                         "structural invariants\n",
                         restore_from.c_str());
            return kExitData;
        }
        xbs_inform("restored warm state at cycle %llu from %s",
                   (unsigned long long)fe->metrics().cycles.value(),
                   restore_from.c_str());
    }

    std::unique_ptr<InvariantAuditor> auditor;
    if (audit && !restore_from.empty()) {
        // The delivery oracle grounds at record 0 of the trace; a
        // restored run only delivers the tail, so the full auditor
        // would report spurious violations. The mandatory one-shot
        // structural audit above already covered the restored state.
        xbs_inform("--audit disabled for a restored run (delivery "
                   "oracle needs a cold start)");
        audit = false;
    }
    if (audit) {
        AuditorOptions opts;
        opts.interval = audit_interval;
        auditor = std::make_unique<InvariantAuditor>(opts);
        auditor->attach(*fe, trace);
    }
    if (injector)
        fe->attachCycleObserver(injector.get());

    fe->attachStopFlag(&g_stop);

    // Simulated-progress-per-host-second rates, sampled on the
    // interval-stats cadence: each window gets a "host" sub-object.
    ThroughputMeter meter;
    if (sampler) {
        Frontend *fe_ptr = fe.get();
        sampler->setAnnotator([&, fe_ptr](JsonWriter &jw) {
            const FrontendMetrics &mm = fe_ptr->metrics();
            ThroughputMeter::Rates r = meter.sample(
                mm.cycles.value(),
                mm.deliveryUops.value() + mm.buildUops.value(),
                mm.traceRecords.value());
            jw.beginObject("host");
            jw.field("wallSeconds", r.wallSeconds);
            jw.field("windowSeconds", r.windowSeconds);
            jw.field("cyclesPerSec", r.cyclesPerSec);
            jw.field("uopsPerSec", r.uopsPerSec);
            jw.field("recordsPerSec", r.recordsPerSec);
            jw.endObject();
        });
    }

    // Live-point cut: arm the run loop to serialize the complete
    // warm state the first time the cycle counter reaches the mark
    // (the write happens mid-run, atomically, without stopping the
    // simulation).
    std::string ckpt_path = checkpoint_out;
    if (checkpoint_at) {
        if (ckpt_path.empty())
            ckpt_path = spec.workload + "." + frontend + ".xbckpt";
        fe->armCheckpoint(
            checkpoint_at, [&](Frontend &f) -> Status {
                return writeCheckpoint(
                    f,
                    makeCkptMeta(spec, trace,
                                 f.metrics().cycles.value()),
                    ckpt_path);
            });
    }

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

    if (checkpoint_at) {
        if (!fe->checkpointTaken()) {
            xbs_inform("run ended before checkpoint cycle %llu; no "
                       "checkpoint written",
                       (unsigned long long)checkpoint_at);
        } else if (!fe->checkpointStatus().isOk()) {
            std::fprintf(stderr,
                         "xbsim: checkpoint write failed: %s\n",
                         fe->checkpointStatus().toString().c_str());
            if (exit_code == kExitOk)
                exit_code = kExitData;
        } else {
            xbs_inform("wrote checkpoint to %s",
                       ckpt_path.c_str());
        }
    }

    const auto &m = fe->metrics();
    const HostCounters hc = HostCounters::self();
    const ThroughputMeter::Rates overall = meter.overall(
        m.cycles.value(),
        m.deliveryUops.value() + m.buildUops.value(),
        m.traceRecords.value());
    if (json) {
        JsonWriter jw(std::cout);
        jw.beginObject();
        jw.field("frontend", frontend);
        jw.field("workload", trace_name);
        jw.field("capacityUops", capacity);
        jw.field("totalUops", total_uops);
        jw.field("bandwidth", m.bandwidth());
        jw.field("missRate", m.missRate());
        jw.field("overallIpc", m.overallIpc());
        jw.field("cycles", m.cycles.value());
        jw.field("condMispredictRate", m.condMispredictRate());
        fe->attrib().writeJson(jw, m.buildUops.value(),
                               m.stallCycles.value(),
                               fe->arrayAccounting());
        writeBuildInfoJson(jw, buildInfo());
        hc.writeJson(jw, "host");
        jw.beginObject("throughput");
        jw.field("wallSeconds", overall.wallSeconds);
        jw.field("cyclesPerSec", overall.cyclesPerSec);
        jw.field("uopsPerSec", overall.uopsPerSec);
        jw.field("recordsPerSec", overall.recordsPerSec);
        jw.endObject();
        if (profile) {
            jw.beginObject("profile");
            jw.field("totalEstimatedMs",
                     (double)prof.totalEstimatedNs() / 1e6);
            prof.writeJson(jw, "phases");
            jw.endObject();
        }
        if (interrupted)
            jw.field("interrupted", true);
        if (!restore_from.empty())
            jw.field("restoredFrom", restore_from);
        if (checkpoint_at && fe->checkpointTaken() &&
            fe->checkpointStatus().isOk()) {
            jw.field("checkpointOut", ckpt_path);
        }
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
