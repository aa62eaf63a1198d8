/**
 * @file
 * Timing probes installed through ScenarioConfig::instrument in
 * traced replays.  Each probe forwards to the exact public function
 * the stock policy object calls, so a traced replay's simulated
 * outputs are byte-identical to an untraced one (the benchmark checks
 * this on every traced run):
 *
 *  - Baseline / Safe Vmin: timing subclasses of OndemandGovernor and
 *    LinuxSpreadPlacer;
 *  - Placement / Optimal: a forwarding governor and placer over the
 *    daemon's public tick(), wouldTick(), nextTickTime() and
 *    placeNewProcess().
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <functional>

#include "ecosched/ecosched.hh"
#include "trace.hh"

namespace perfbench {

/// Per-replay call tallies filled by the probes.
struct ReplayProbe
{
    Tally governorTick;  ///< ondemand tick()
    Tally daemonTick;    ///< Daemon::tick() via the governor hook
    Tally horizon;       ///< Governor::nextActivity()
    Tally spreadPlace;   ///< LinuxSpreadPlacer::place()
    Tally daemonPlace;   ///< Daemon::placeNewProcess()

    void merge(const ReplayProbe &other)
    {
        governorTick.merge(other.governorTick);
        daemonTick.merge(other.daemonTick);
        horizon.merge(other.horizon);
        spreadPlace.merge(other.spreadPlace);
        daemonPlace.merge(other.daemonPlace);
    }

    /// Host time spent inside every probed call.
    std::int64_t childNs() const
    {
        return governorTick.ns + daemonTick.ns + horizon.ns
            + spreadPlace.ns + daemonPlace.ns;
    }
};

/// The instrument hook that swaps the policy objects of @p policy
/// for their probes.  @p probe must outlive the replay.
std::function<void(ecosched::Machine &, ecosched::System &,
                   ecosched::Daemon *)>
probeInstaller(ecosched::PolicyKind policy, ReplayProbe &probe);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
