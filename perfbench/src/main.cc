/**
 * @file
 * Benchmark program: runs one workload and prints its raw report as
 * one JSON document on stdout.  perfbench/run.py builds this program
 * and reduces the report to the metrics named in BENCHMARK.json.
 *
 * Usage: perfbench_runner --workload NAME --seed N --seconds S
 *                         --trace 0|1 [--trace-dir DIR]
 *
 * Exit status: 0 when every output check passed, 1 when one failed,
 * 2 on bad arguments or a fatal error.
 */

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload")
            opt.workload = value;
        else if (key == "--seed")
            opt.seed = std::stoull(value);
        else if (key == "--seconds")
            opt.seconds = std::stod(value);
        else if (key == "--trace")
            opt.trace = value == "1";
        else if (key == "--trace-dir")
            opt.traceDir = value;
        else
            return false;
    }
    return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        if (!parseArgs(argc, argv, opt)) {
            std::cerr << "usage: perfbench_runner --workload NAME --seed N "
                         "--seconds S --trace 0|1 [--trace-dir DIR]\n";
            return 2;
        }
        Tracer tracer;
        Report rep;
        if (opt.workload == "paper_eval") {
            rep = runPaperEval(opt, tracer);
        } else if (opt.workload == "fleet_diurnal") {
            rep = runFleetDiurnal(opt, tracer);
        } else if (opt.workload == "config_search") {
            rep = runConfigSearch(opt, tracer);
        } else {
            std::cerr << "unknown workload " << opt.workload << "\n";
            return 2;
        }
        rep.workload = opt.workload;
        rep.seed = opt.seed;
        if (opt.trace) {
            const std::string stem = opt.traceDir + "/" + opt.workload
                + "-seed" + std::to_string(opt.seed);
            rep.check("trace files written",
                      tracer.writeChrome(stem + ".trace.json")
                          && tracer.writeSummary(stem + ".summary.json"),
                      stem);
        }
        std::cout << rep.toJson();
        return rep.allChecksPassed() ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "perfbench_runner: " << e.what() << "\n";
        return 2;
    }
}
