/**
 * @file
 * xbregress - benchmark regression gate: compares a current
 * bench.json against a checked-in baseline metric-for-metric and
 * fails (exit 6) when a gated metric drifts outside its tolerance.
 *
 * Paper metrics (miss rate, bandwidth, uops/cycle, cycles, total
 * uops) are simulator outputs and must be stable to a tight relative
 * tolerance (default +-0.5%; totalUops must match exactly). Host
 * metrics (CPU seconds, peak RSS, uops per host second) vary with
 * the machine, so they get a loose tolerance (default +-50%) and
 * warn instead of fail unless --gate-host is set.
 *
 * The simulator is deterministic, so a threshold is the whole gate:
 * a paper metric that moves beyond its tolerance is a real change in
 * the simulation, never noise.
 *
 * Examples:
 *   xbregress bench.json bench/baselines/ci-smoke.json
 *   xbregress bench.json base.json --record=BENCH_1.json
 *   xbregress bench.json base.json --paper-tol=0.01 --all
 *
 * Exit codes: 0 pass; 1 usage; 2 unreadable input; 6 regression
 * (gated metric out of tolerance, metric missing, or baseline built
 * incompatibly and --allow-build-mismatch not given).
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
    double paper_tol = 0.005;
    double host_tol = 0.50;
    bool gate_host = false;
    bool allow_build_mismatch = false;
    bool all = false;
    std::string record_path;

    ArgParser args("xbregress",
                   "compare bench.json against a baseline and gate "
                   "on regressions");
    args.addDouble("paper-tol", &paper_tol,
                   "relative tolerance for paper metrics");
    args.addDouble("host-tol", &host_tol,
                   "relative tolerance for host metrics");
    args.addBool("gate-host", &gate_host,
                 "host regressions fail instead of warn");
    args.addBool("allow-build-mismatch", &allow_build_mismatch,
                 "compare despite a build-type/sanitizer mismatch");
    args.addBool("all", &all,
                 "show every compared metric, not just offenders");
    args.addString("record", &record_path,
                   "also write a BENCH_<n>.json trajectory record");
    if (!args.parse(argc, argv))
        return 0;
    if (args.positional().size() != 2) {
        std::fprintf(stderr,
                     "xbregress: expected <current.json> "
                     "<baseline.json>\n");
        return kExitUsage;
    }
    const std::string cur_path = args.positional()[0];
    const std::string base_path = args.positional()[1];

    Expected<BenchReport> current = readBenchFile(cur_path);
    if (!current.ok()) {
        std::fprintf(stderr, "xbregress: %s\n",
                     current.status().toString().c_str());
        return kExitData;
    }
    Expected<BenchReport> baseline = readBenchFile(base_path);
    if (!baseline.ok()) {
        std::fprintf(stderr, "xbregress: %s\n",
                     baseline.status().toString().c_str());
        return kExitData;
    }

    RegressOptions opts;
    opts.paperTol = paper_tol;
    opts.hostTol = host_tol;
    opts.gateHost = gate_host;
    opts.allowBuildMismatch = allow_build_mismatch;

    RegressReport report =
        compareBench(current.value(), baseline.value(), opts);
    std::cout << renderRegressTable(report, all);

    if (!record_path.empty()) {
        const std::string rec =
            renderBenchRecord(current.value(), report, base_path);
        if (Status st = writeFileAtomic(record_path, rec);
            !st.isOk()) {
            std::fprintf(stderr, "xbregress: %s\n",
                         st.toString().c_str());
            return kExitData;
        }
    }

    return report.pass() ? kExitOk : kExitRegression;
}
