#include "sim/cell.hh"

#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>

#include "common/logging.hh"
#include "common/signals.hh"
#include "common/status.hh"
#include "prof/build_info.hh"

namespace xbs
{

namespace
{

/** Raised by SIGINT/SIGTERM while a cell runs; the run loop polls it
 *  at cycle boundaries. */
volatile std::sig_atomic_t g_cellStop = 0;

} // anonymous namespace

void
writeResultFields(JsonWriter &jw, const std::string &frontend,
                  const std::string &workload, uint64_t capacity,
                  uint64_t total_uops, const Frontend &fe,
                  const ThroughputMeter::Rates &overall)
{
    const FrontendMetrics &m = fe.metrics();
    jw.field("frontend", frontend);
    jw.field("workload", workload);
    jw.field("capacityUops", capacity);
    jw.field("totalUops", total_uops);
    jw.field("bandwidth", m.bandwidth());
    jw.field("missRate", m.missRate());
    jw.field("overallIpc", m.overallIpc());
    jw.field("cycles", m.cycles.value());
    jw.field("condMispredictRate", m.condMispredictRate());
    fe.attrib().writeJson(jw, m.buildUops.value(),
                          m.stallCycles.value(),
                          fe.arrayAccounting());
    writeBuildInfoJson(jw, buildInfo());
    HostCounters::self().writeJson(jw, "host");
    jw.beginObject("throughput");
    jw.field("wallSeconds", overall.wallSeconds);
    jw.field("cyclesPerSec", overall.cyclesPerSec);
    jw.field("uopsPerSec", overall.uopsPerSec);
    jw.field("recordsPerSec", overall.recordsPerSec);
    jw.endObject();
}

IntervalStream::IntervalStream(Frontend &fe, uint64_t window,
                               const std::string &path,
                               ThroughputMeter &meter)
    : os_(path), sampler_(fe.statRoot(), window)
{
    sampler_.setOutput(&os_);
    sampler_.setAnnotator([&fe, &meter](JsonWriter &jw) {
        const FrontendMetrics &mm = fe.metrics();
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
    fe.attachSampler(&sampler_);
}

int
runCell(const RunSpec &spec, const Trace *trace,
        const CellIntervals &intervals, CycleObserver *observer)
{
    Expected<SimConfig> config = spec.config();
    Status st = config.ok() ? validateConfig(config.value())
                            : config.status();
    if (!st.isOk()) {
        std::fprintf(stderr, "xbsim: %s\n", st.toString().c_str());
        return kExitUsage;
    }
    if (!trace) {
        std::fprintf(stderr,
                     "xbsim: unknown workload '%s' (see "
                     "--list-workloads)\n",
                     spec.workload.c_str());
        return kExitUsage;
    }
    setLogQuiet(true);

    std::unique_ptr<Frontend> fe = makeFrontend(config.value());
    ThroughputMeter meter;
    std::optional<IntervalStream> stream;
    if (intervals.window) {
        stream.emplace(*fe, intervals.window, intervals.path, meter);
        if (!stream->ok()) {
            std::fprintf(stderr, "xbsim: cannot open '%s'\n",
                         intervals.path.c_str());
            return kExitUsage;
        }
    }
    if (observer)
        fe->attachCycleObserver(observer);
    installStopHandlers(&g_cellStop);
    fe->attachStopFlag(&g_cellStop);

    meter.reset();
    fe->run(*trace);
    const bool interrupted = g_cellStop != 0;
    resetStopHandlers();
    fe->finishObservation();

    const FrontendMetrics &m = fe->metrics();
    JsonWriter jw(std::cout);
    jw.beginObject();
    writeResultFields(jw, spec.frontend, trace->name(), spec.capacity,
                      trace->totalUops(), *fe,
                      meter.overall(m.cycles.value(),
                                    m.deliveryUops.value() +
                                        m.buildUops.value(),
                                    m.traceRecords.value()));
    if (interrupted)
        jw.field("interrupted", true);
    jw.endObject();
    std::cout << "\n";
    return interrupted ? kExitInterrupted : kExitOk;
}

} // namespace xbs
