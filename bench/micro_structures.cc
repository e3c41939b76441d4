/**
 * @file
 * MICRO - google-benchmark microbenchmarks of the core structures:
 * throughput of XBC insert/lookup, TC insert/lookup, GSHARE
 * predict/update, the executor, and block-length statistics.
 *
 * These quantify the simulator itself (host performance), not the
 * modeled machine.
 */

#include <benchmark/benchmark.h>

#include "bpred/direction.hh"
#include "core/data_array.hh"
#include "tc/trace_cache.hh"
#include "trace/trace_stats.hh"
#include "workload/catalog.hh"
#include "workload/executor.hh"

namespace xbs
{
namespace
{

const Trace &
cachedTrace()
{
    static const Trace trace = makeCatalogTrace("gcc", 100000);
    return trace;
}

void
BM_ExecutorThroughput(benchmark::State &state)
{
    auto prog = buildCatalogProgram(findWorkload("gcc"));
    for (auto _ : state) {
        Executor ex(prog, 1);
        Trace t = ex.run((uint64_t)state.range(0));
        benchmark::DoNotOptimize(t.numRecords());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExecutorThroughput)->Arg(10000)->Unit(
    benchmark::kMillisecond);

void
BM_GsharePredictUpdate(benchmark::State &state)
{
    GsharePredictor g(16);
    uint64_t ip = 0x400000;
    uint64_t n = 0;
    for (auto _ : state) {
        bool p = g.predict(ip + (n & 0xff) * 8);
        g.update(ip + (n & 0xff) * 8, (n & 3) != 0);
        benchmark::DoNotOptimize(p);
        ++n;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GsharePredictUpdate);

void
BM_XbcInsert(benchmark::State &state)
{
    const Trace &trace = cachedTrace();
    XbcParams params;
    for (auto _ : state) {
        state.PauseTiming();
        StatGroup root("bench");
        XbcDataArray arr(params, &root);
        arr.bindCode(&trace.code());
        state.ResumeTiming();

        XbSeq seq;
        uint64_t inserts = 0;
        for (std::size_t i = 0; i < trace.numRecords(); ++i) {
            const auto &si = trace.inst(i);
            if (seq.size() + si.numUops > params.xbQuotaUops) {
                seq.clear();
            }
            appendInstUops(trace.code(), trace.record(i).staticIdx,
                           seq);
            if (si.endsXb()) {
                XbPointer ptr;
                arr.insert(seq, si.ip, 0, &ptr);
                seq.clear();
                ++inserts;
            }
        }
        benchmark::DoNotOptimize(inserts);
    }
    state.SetItemsProcessed(state.iterations() *
                            cachedTrace().numRecords());
}
BENCHMARK(BM_XbcInsert)->Unit(benchmark::kMillisecond);

void
BM_XbcLookup(benchmark::State &state)
{
    const Trace &trace = cachedTrace();
    XbcParams params;
    StatGroup root("bench");
    XbcDataArray arr(params, &root);
    arr.bindCode(&trace.code());

    // Populate and remember pointers.
    std::vector<XbPointer> ptrs;
    XbSeq seq;
    for (std::size_t i = 0; i < trace.numRecords(); ++i) {
        const auto &si = trace.inst(i);
        if (seq.size() + si.numUops > params.xbQuotaUops)
            seq.clear();
        appendInstUops(trace.code(), trace.record(i).staticIdx, seq);
        if (si.endsXb()) {
            XbPointer ptr;
            arr.insert(seq, si.ip, 0, &ptr);
            if (ptr.valid)
                ptrs.push_back(ptr);
            seq.clear();
        }
    }

    std::size_t n = 0;
    for (auto _ : state) {
        const XbPointer &p = ptrs[n++ % ptrs.size()];
        auto acc = arr.lookup(p.xbIp, p.mask, p.entryIdx);
        benchmark::DoNotOptimize(acc.variant);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_XbcLookup);

void
BM_TcInsertLookup(benchmark::State &state)
{
    const Trace &trace = cachedTrace();
    for (auto _ : state) {
        state.PauseTiming();
        StatGroup root("bench");
        TraceCache tc(32768, 4, TraceLimits{}, &root);
        state.ResumeTiming();

        TraceLine line;
        line.valid = true;
        uint64_t ops = 0;
        for (std::size_t i = 0; i < trace.numRecords(); ++i) {
            const auto &si = trace.inst(i);
            if (line.insts.empty())
                line.startIp = si.ip;
            if (line.numUops + si.numUops > 16) {
                tc.insert(line, trace.code());
                ++ops;
                line.clear();
                line.valid = true;
                line.startIp = si.ip;
            }
            line.insts.push_back(EmbeddedInst{
                (int32_t)trace.record(i).staticIdx,
                (uint8_t)trace.record(i).taken});
            line.numUops += si.numUops;
            if (si.endsTrace()) {
                tc.insert(line, trace.code());
                ++ops;
                line.clear();
                line.valid = true;
            }
            tc.lookup(si.ip);
        }
        benchmark::DoNotOptimize(ops);
    }
    state.SetItemsProcessed(state.iterations() *
                            cachedTrace().numRecords());
}
BENCHMARK(BM_TcInsertLookup)->Unit(benchmark::kMillisecond);

void
BM_BlockLengthStats(benchmark::State &state)
{
    const Trace &trace = cachedTrace();
    for (auto _ : state) {
        auto s = computeBlockLengthStats(trace);
        benchmark::DoNotOptimize(s.xb.total());
    }
    state.SetItemsProcessed(state.iterations() *
                            cachedTrace().numRecords());
}
BENCHMARK(BM_BlockLengthStats)->Unit(benchmark::kMillisecond);

} // anonymous namespace
} // namespace xbs

BENCHMARK_MAIN();
