/**
 * @file
 * xbagg - sweep aggregator: merges an xbatch sweep directory
 * (report.json + intervals/job-<id>.jsonl) into one run-level
 * bench.json carrying paper metrics with interval-bandwidth
 * percentiles, host-performance rollups, and build provenance.
 *
 * Examples:
 *   xbagg sweep-dir                      # writes sweep-dir/bench.json
 *   xbagg sweep-dir --out=bench.json     # explicit output path
 *   xbagg sweep-dir --print              # also pretty-print to stdout
 *
 * Degrades gracefully: jobs with torn or missing interval streams
 * keep their paper metrics (flagged in the row); only a missing or
 * malformed report.json is fatal.
 */

#include <cstdio>
#include <iostream>

#include "common/args.hh"
#include "common/fs.hh"
#include "common/status.hh"
#include "prof/bench_io.hh"

using namespace xbs;

int
main(int argc, char **argv)
{
    std::string out_path;
    bool print = false;

    ArgParser args("xbagg",
                   "aggregate an xbatch sweep directory into "
                   "bench.json");
    args.addString("out", &out_path,
                   "output path (default: <dir>/bench.json)");
    args.addBool("print", &print, "echo the JSON to stdout too");
    if (!args.parse(argc, argv))
        return 0;
    if (args.positional().size() != 1) {
        std::fprintf(stderr,
                     "xbagg: expected exactly one sweep directory\n");
        return kExitUsage;
    }
    const std::string dir = args.positional()[0];
    if (out_path.empty())
        out_path = dir + "/bench.json";

    Expected<BenchReport> bench = aggregateSweepDir(dir);
    if (!bench.ok()) {
        std::fprintf(stderr, "xbagg: %s\n",
                     bench.status().toString().c_str());
        return kExitData;
    }

    const std::string json = renderBenchJson(bench.value());
    if (Status st = writeFileAtomic(out_path, json); !st.isOk()) {
        std::fprintf(stderr, "xbagg: %s\n", st.toString().c_str());
        return kExitData;
    }
    if (print)
        std::cout << json;

    const BenchReport &b = bench.value();
    std::size_t torn = 0, no_intervals = 0;
    for (const BenchRow &row : b.rows) {
        if (row.intervals.torn)
            ++torn;
        else if (!row.intervals.has)
            ++no_intervals;
    }
    std::fprintf(stderr,
                 "xbagg: %zu rows (%llu/%llu jobs ok) -> %s\n",
                 b.rows.size(), (unsigned long long)b.jobsOk,
                 (unsigned long long)b.jobsTotal, out_path.c_str());
    if (torn || no_intervals) {
        std::fprintf(stderr,
                     "xbagg: interval damage: %zu torn, %zu missing "
                     "(rows keep their paper metrics)\n",
                     torn, no_intervals);
    }
    return kExitOk;
}
