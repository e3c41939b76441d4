#include "sim/runner.hh"

#include "bbtc/bbtc_frontend.hh"
#include "common/logging.hh"
#include "core/xbc_frontend.hh"
#include "dc/dc_frontend.hh"
#include "workload/catalog.hh"

namespace xbs
{

SuiteRunner::SuiteRunner(uint64_t trace_len,
                         std::vector<std::string> workloads)
    : traceLen_(trace_len ? trace_len : defaultTraceLength()),
      workloads_(std::move(workloads))
{
    if (workloads_.empty()) {
        for (const auto &e : workloadCatalog())
            workloads_.push_back(e.name);
    }
}

RunResult
SuiteRunner::measure(const Trace &trace, const std::string &suite,
                     const std::string &label, const SimConfig &config)
{
    auto fe = makeFrontend(config);
    fe->run(trace);

    RunResult r;
    r.label = label;
    r.workload = trace.name();
    r.suite = suite;
    const auto &m = fe->metrics();
    r.bandwidth = m.bandwidth();
    r.missRate = m.missRate();
    r.condMispredictRate = m.condMispredictRate();
    r.overallIpc = m.overallIpc();
    r.cycles = m.cycles.value();
    r.totalUops = m.deliveryUops.value() + m.buildUops.value();
    r.modeSwitches = m.modeSwitches.value();

    r.condPredictions = m.condBranches.value();

    if (auto *tc = dynamic_cast<TcFrontend *>(fe.get())) {
        r.redundancy = tc->cache().redundancy();
        r.fillFactor = tc->cache().fillFactor();
    } else if (auto *xbc = dynamic_cast<XbcFrontend *>(fe.get())) {
        r.redundancy = xbc->dataArray().redundancy();
        r.fillFactor = xbc->dataArray().fillFactor();
        r.promotions = xbc->promotions.value();
        r.bankConflictDefers = xbc->bankConflictDefers.value();
        r.setSearchHits = xbc->dataArray().setSearchHits.value();
    } else if (auto *dc = dynamic_cast<DcFrontend *>(fe.get())) {
        r.fillFactor = dc->cache().fillFactor();
    } else if (auto *bbtc = dynamic_cast<BbtcFrontend *>(fe.get())) {
        r.redundancy = bbtc->pointerRedundancy();
        r.fillFactor = bbtc->blockCache().fillFactor();
    }
    return r;
}

RunResult
SuiteRunner::runOne(const std::string &workload,
                    const std::string &label, const SimConfig &config)
{
    const auto &entry = findWorkload(workload);
    Trace trace = makeCatalogTrace(workload, traceLen_);
    return measure(trace, entry.suite, label, config);
}

std::vector<RunResult>
SuiteRunner::sweep(
    const std::vector<std::pair<std::string, SimConfig>> &configs,
    const std::function<void(const RunResult &)> &progress)
{
    std::vector<RunResult> out;
    for (const auto &name : workloads_) {
        const auto &entry = findWorkload(name);
        Trace trace = makeCatalogTrace(name, traceLen_);
        for (const auto &[label, config] : configs) {
            RunResult r = measure(trace, entry.suite, label, config);
            if (progress)
                progress(r);
            out.push_back(std::move(r));
        }
    }
    return out;
}

namespace
{

double
meanOf(const std::vector<RunResult> &results, const std::string &label,
       const std::string &suite, double RunResult::*field)
{
    double sum = 0.0;
    unsigned n = 0;
    for (const auto &r : results) {
        if (r.label != label)
            continue;
        if (!suite.empty() && r.suite != suite)
            continue;
        sum += r.*field;
        ++n;
    }
    return n ? sum / (double)n : 0.0;
}

} // anonymous namespace

double
SuiteRunner::meanMissRate(const std::vector<RunResult> &results,
                          const std::string &label,
                          const std::string &suite)
{
    return meanOf(results, label, suite, &RunResult::missRate);
}

double
SuiteRunner::meanBandwidth(const std::vector<RunResult> &results,
                           const std::string &label,
                           const std::string &suite)
{
    return meanOf(results, label, suite, &RunResult::bandwidth);
}

} // namespace xbs
