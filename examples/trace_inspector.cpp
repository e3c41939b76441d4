/**
 * @file
 * Inspect a synthetic trace: block-length statistics (the Figure 1
 * machinery), control-flow mix, branch bias population, and a
 * round-trip through the binary trace format.
 *
 *   $ ./build/examples/trace_inspector [workload] [instructions]
 */

#include <cstdio>
#include <cstdlib>
#include <map>

#include "common/table.hh"
#include "trace/trace_io.hh"
#include "trace/trace_stats.hh"
#include "workload/catalog.hh"

using namespace xbs;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "perl";
    uint64_t len = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                            : 300000;

    Trace trace = makeCatalogTrace(name, len);
    trace.validate();
    std::printf("trace '%s': %zu instructions, %llu uops "
                "(%.2f uops/inst)\n\n",
                trace.name().c_str(), trace.numRecords(),
                (unsigned long long)trace.totalUops(),
                (double)trace.totalUops() / trace.numRecords());

    // Control-flow class mix.
    std::map<InstClass, uint64_t> mix;
    uint64_t taken = 0, cond = 0;
    for (std::size_t i = 0; i < trace.numRecords(); ++i) {
        mix[trace.inst(i).cls] += 1;
        if (trace.inst(i).cls == InstClass::CondBranch) {
            ++cond;
            taken += trace.record(i).taken;
        }
    }
    TextTable mixT({"class", "count", "share"});
    for (const auto &[cls, count] : mix) {
        mixT.addRow({instClassName(cls), std::to_string(count),
                     TextTable::pct((double)count /
                                    trace.numRecords())});
    }
    std::printf("instruction mix:\n%s\n", mixT.render().c_str());
    std::printf("conditional branches taken: %.1f%%\n\n",
                cond ? 100.0 * taken / cond : 0.0);

    // Branch bias population: how many branches are promotable?
    BranchBiasTable bias = computeBranchBias(trace);
    uint64_t monotonic = 0, branches = 0;
    for (std::size_t i = 0; i < trace.numRecords(); ++i) {
        if (trace.inst(i).cls != InstClass::CondBranch)
            continue;
        // Count each static branch once, at its first occurrence.
        bool first = true;
        for (std::size_t j = 0; j < i; ++j) {
            if (trace.record(j).staticIdx == trace.record(i).staticIdx) {
                first = false;
                break;
            }
        }
        if (!first)
            continue;
        ++branches;
        if (bias.monotonic(trace.record(i).staticIdx, 0.992))
            ++monotonic;
    }
    std::printf("static conditional branches: %llu, of which "
                "%.1f%% are >=99.2%% biased (promotable)\n\n",
                (unsigned long long)branches,
                branches ? 100.0 * monotonic / branches : 0.0);

    // Figure 1 statistics for this trace.
    auto s = computeBlockLengthStats(trace);
    TextTable lenT({"block type", "mean uops"});
    lenT.addRow({"basic block", TextTable::num(s.basicBlock.mean())});
    lenT.addRow({"extended block", TextTable::num(s.xb.mean())});
    lenT.addRow({"XB w/ promotion",
                 TextTable::num(s.xbPromoted.mean())});
    lenT.addRow({"dual XB", TextTable::num(s.dualXb.mean())});
    std::printf("block lengths (16-uop cap):\n%s\n",
                lenT.render().c_str());
    std::printf("%s\n", s.xb.render("XB length histogram").c_str());

    // Round-trip through the binary format.
    std::string path = "/tmp/xbs_inspector_roundtrip.xbt";
    Status st = writeTraceEx(trace, path);
    Expected<Trace> replay =
        st.isOk() ? readTraceEx(path) : Expected<Trace>(st);
    std::remove(path.c_str());
    if (!replay.ok()) {
        std::fprintf(stderr, "trace_inspector: %s\n",
                     replay.status().toString().c_str());
        return kExitData;
    }
    std::printf("binary round-trip: %zu records re-read OK\n",
                replay.value().numRecords());
    return 0;
}
