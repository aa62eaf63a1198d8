/**
 * @file
 * The three benchmark workloads.  Each fills a Report from one
 * process, derives its inputs from Options::seed only, and never uses
 * more worker threads than the host has cores.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "bench.hh"
#include "trace.hh"

namespace perfbench {

/// §VI.B server traces for both chips, replayed serially under
/// Baseline, Safe Vmin, Placement and Optimal (Tables III/IV).
Report runPaperEval(const Options &opt, Tracer &tracer);

/// A mixed fleet of Optimal nodes under diurnal traffic, the SLO
/// autoscaler and rack outages, stepped by ClusterSim.
Report runFleetDiurnal(const Options &opt, Tracer &tracer);

/// Branch-and-bound optimum queries over threads x ladder frequency
/// for every catalog program on both chips, energy then ED2P.
Report runConfigSearch(const Options &opt, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
