/**
 * @file
 * casqbench: the measuring half of the repo benchmark.
 *
 *   casqbench --workload compile-dd|simulate-ca-dd|service-jobs
 *             --seed N --seconds S --trace 0|1 --out RAW.json
 *             [--trace-file TRACE.json] [--serve casq_serve]
 *             [--socket PATH]
 *
 * Runs one workload, checks its outputs and writes the raw samples
 * to --out; with --trace 1 it also writes the spans as Chrome
 * trace-event JSON to --trace-file.  casqbench/run.py builds this
 * program, runs it and reduces the raw samples to the metrics.
 */

#include <cstring>
#include <iostream>
#include <limits>

#include "bench_common.hh"
#include "report.hh"

using namespace casqbench;

namespace {

int
usage()
{
    std::cerr << "usage: casqbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out FILE [--trace-file FILE] "
                 "[--serve PATH] [--socket PATH]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        auto value = [&](const char *flag) -> const char * {
            if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc)
                return argv[++i];
            return nullptr;
        };
        if (const char *v = value("--workload"))
            args.workload = v;
        else if (const char *v = value("--seed"))
            args.seed = casq::bench::checkedUInt64("--seed", v);
        else if (const char *v = value("--seconds"))
            args.seconds =
                double(casq::bench::checkedInt("--seconds", v, 1, 3600));
        else if (const char *v = value("--trace"))
            args.trace =
                casq::bench::checkedInt("--trace", v, 0, 1) == 1;
        else if (const char *v = value("--out"))
            args.out = v;
        else if (const char *v = value("--trace-file"))
            args.traceFile = v;
        else if (const char *v = value("--serve"))
            args.serveBin = v;
        else if (const char *v = value("--socket"))
            args.socket = v;
        else
            return usage();
    }
    if (args.out.empty())
        return usage();

    Tracer tracer(args.trace);
    Report report;
    try {
        if (args.workload == "compile-dd")
            runCompileDd(args, report, tracer);
        else if (args.workload == "simulate-ca-dd")
            runSimulate(args, report, tracer);
        else if (args.workload == "service-jobs")
            runServiceJobs(args, report, tracer);
        else
            return usage();
    } catch (const std::exception &err) {
        std::cerr << "casqbench: " << args.workload << ": " << err.what()
                  << "\n";
        return 1;
    }
    if (args.trace) {
        report.traceFile = args.traceFile;
        if (!tracer.writeChromeTrace(args.traceFile)) {
            std::cerr << "casqbench: cannot write " << args.traceFile << "\n";
            return 1;
        }
    }
    if (!report.write(args.out)) {
        std::cerr << "casqbench: cannot write " << args.out << "\n";
        return 1;
    }
    return 0;
}
