/**
 * @file
 * Workload `fleet_diurnal`: a mixed X-Gene 2 / X-Gene 3 fleet of
 * Optimal nodes under the ext_cluster_scaling recipe — diurnal open
 * arrivals at 10 % mean occupancy with a 0.8 swing, energy_aware
 * dispatch, the SLO autoscaler and a rack-outage campaign — stepped
 * by ClusterSim on 2 workers.  Each round builds kFleets fleets from
 * seeds forked from the run seed (the set-up) and drives each
 * through start()/advance()/finish() in turn (the measured phase; one
 * advance() window is one task).
 */

#include <memory>
#include <cmath>
#include <cstdint>
#include <vector>

#include "ecosched/ecosched.hh"
#include "workloads.hh"

namespace perfbench {

using namespace ecosched;

namespace {

constexpr std::size_t kNodes = 256;
constexpr std::uint32_t kNodesPerRack = 32;
constexpr Seconds kDuration = 300.0;
constexpr double kOccupancy = 0.10;
constexpr unsigned kWorkers = 2;
/// Fleets per round.  Each is one draw of arrivals and outages, and
/// one fleet's run time swings by about a sixth from seed to seed
/// (how long the last jobs drain, how much work an outage kills), so
/// a round averages over three of them instead of hinging on one.
constexpr std::size_t kFleets = 3;
/// Untraced rounds at least: a window lasts a few milliseconds, so
/// its latency is its median over three rounds or more, which drops
/// a host hiccup that hit it in one round.
constexpr std::size_t kMinRounds = 3;
/// Whole-rack outages in every fleet's campaign.
constexpr std::size_t kRackOutages = 2;

/// Seed of fleet @p k of a round: the run seed itself for the first,
/// as ext_cluster_scaling does, and seeds forked from it for the rest.
std::uint64_t
fleetSeed(std::uint64_t seed, std::size_t k)
{
    return k == 0 ? seed : Rng(seed).fork(k).next();
}

std::size_t
rackOutages(const InjectionPlan &plan)
{
    std::size_t n = 0;
    for (const FaultEvent &ev : plan.events())
        n += ev.kind == FaultKind::NodeCrash && ev.rackScoped ? 1 : 0;
    return n;
}

/// The ext_cluster_scaling configuration at kNodes nodes.
ClusterConfig
fleetConfig(std::uint64_t seed)
{
    ClusterConfig cc;
    cc.nodes = mixedFleet(kNodes, seed);
    cc.dispatch = DispatchPolicy::EnergyAware;
    cc.traffic.process = ArrivalProcess::Diurnal;
    cc.traffic.duration = kDuration;
    cc.traffic.diurnalAmplitude = 0.8;
    cc.traffic.seed = seed;
    cc.drainBoundFactor = 20.0;
    cc.jobs = kWorkers;

    // Arrival rate offering kOccupancy of the fleet's core capacity.
    const TrafficModel planner(cc.traffic);
    double rate = 0.0;
    for (const NodeConfig &nc : cc.nodes) {
        rate += kOccupancy * static_cast<double>(nc.chip.numCores)
            / planner.meanCoreSecondsPerJob(nc.chip.numCores);
    }
    cc.traffic.arrivalsPerSecond = rate;

    cc.autoscale.enabled = true;
    cc.autoscale.targetP99 = 420.0;
    cc.autoscale.lowWatermark = 0.7;
    cc.autoscale.evalInterval = 20.0;
    cc.autoscale.window = 200.0;
    cc.autoscale.minLiveNodes = kNodes / 16;

    // Two expected whole-rack outages per run, restart after 60 s.
    // The outage count is Poisson, and each outage loses a rack's
    // running jobs and moves the fleet's load, so the campaign is the
    // first one drawn (from the seed, then from seeds forked from it)
    // with exactly kRackOutages of them: when and where they strike
    // still varies with the seed, how many does not.
    cc.nodesPerRack = kNodesPerRack;
    CampaignProfile faults;
    faults.duration = kDuration;
    faults.nodes = static_cast<std::uint32_t>(kNodes);
    faults.nodesPerRack = kNodesPerRack;
    faults.rackCrashesPerHour = 2.0 * 3600.0 / kDuration;
    faults.rackRestartDelay = 60.0;
    const Rng root(seed);
    for (std::uint64_t draw = 0;; ++draw) {
        cc.injection = InjectionPlan::randomCampaign(
            faults, draw == 0 ? seed : root.fork(draw).next());
        if (rackOutages(cc.injection) == kRackOutages)
            break;
    }
    return cc;
}

/// Every simulated output of a fleet run, bit for bit.
std::uint64_t
resultDigest(const ClusterResult &r)
{
    Digest d;
    d.add(r.jobsSubmitted).add(r.jobsCompleted).add(r.jobsDropped)
        .add(r.jobsLost).add(r.jobsFailed);
    d.add(r.makespan).add(r.totalEnergy).add(r.averagePower);
    d.add(r.latencyMean).add(r.latencyMin).add(r.latencyP50)
        .add(r.latencyP95).add(r.latencyP99).add(r.latencyMax);
    d.add(r.sloViolations).add(r.nodeCrashes).add(r.nodeRestarts)
        .add(r.autoscaleParks).add(r.autoscaleUnparks);
    for (const NodeSummary &n : r.nodes) {
        d.add(std::uint64_t{n.node}).add(n.jobsCompleted).add(n.energy)
            .add(n.utilization).add(n.parkedTime)
            .add(std::uint64_t{n.crashed}).add(std::uint64_t{n.restarts});
    }
    return d.value();
}

} // namespace

Report
runFleetDiurnal(const Options &opt, Tracer &tracer)
{
    Report rep;

    std::vector<ClusterResult> reference;
    std::vector<std::uint64_t> refDigest;
    std::uint64_t unbalanced = 0;
    std::uint64_t energyMismatch = 0;
    std::uint64_t mismatched = 0;

    Tally build;
    Tally advance;
    std::vector<double> windows;

    runRounds(opt, kMinRounds, [&](bool traced) {
        tracer.setEnabled(traced);

        const std::vector<std::unique_ptr<ClusterSim>> sims =
            repeatedSetup(rep, [&] {
                std::vector<std::unique_ptr<ClusterSim>> built;
                for (std::size_t k = 0; k < kFleets; ++k) {
                    Scope span(tracer, "cluster.build", tracer.newTask());
                    ClusterConfig cc = fleetConfig(fleetSeed(opt.seed, k));
                    const std::int64_t t0 = nowNs();
                    built.push_back(
                        std::make_unique<ClusterSim>(std::move(cc)));
                    if (traced)
                        build.add(nowNs() - t0);
                }
                return built;
            });

        const std::int64_t m0 = nowNs();
        std::size_t tasks = 0;
        std::vector<ClusterResult> results;
        for (const std::unique_ptr<ClusterSim> &sim : sims) {
            sim->start();
            while (!sim->finished()) {
                Scope span(tracer, "cluster.advance", tracer.newTask());
                const std::int64_t t0 = nowNs();
                sim->advance();
                const std::int64_t dt = nowNs() - t0;
                ++tasks;
                if (traced)
                    advance.add(dt);
                else
                    rep.taskMs.push_back(static_cast<double>(dt) * 1e-6);
            }
            results.push_back(sim->finish());
        }
        const double wall = secondsBetween(m0, nowNs());

        // Output checks: job conservation, energy accounting and
        // identical results in every round, traced or not.
        bool ok = true;
        for (std::size_t k = 0; k < results.size(); ++k) {
            const ClusterResult &r = results[k];
            const bool balanced = r.jobsSubmitted
                == r.jobsCompleted + r.jobsLost + r.jobsDropped;
            double nodeEnergy = 0.0;
            for (const NodeSummary &n : r.nodes)
                nodeEnergy += n.energy;
            const bool energyOk = std::fabs(nodeEnergy - r.totalEnergy)
                <= 1e-9 * std::fabs(r.totalEnergy);
            const std::uint64_t d = resultDigest(r);
            if (reference.size() <= k) {
                reference.push_back(r);
                refDigest.push_back(d);
            }
            unbalanced += balanced ? 0 : 1;
            energyMismatch += energyOk ? 0 : 1;
            mismatched += d == refDigest[k] ? 0 : 1;
            ok = ok && balanced && energyOk && d == refDigest[k];
        }
        rep.attempted += tasks;
        if (!ok)
            rep.failed += tasks;

        if (traced) {
            rep.tracedWallS.push_back(wall);
            windows.push_back(static_cast<double>(tasks));
        } else {
            rep.roundWallS.push_back(wall);
        }
    });

    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t lost = 0;
    std::uint64_t dropped = 0;
    std::uint64_t failedJobs = 0;
    double nodeSeconds = 0.0;
    double epochs = 0.0;
    double parked = 0.0;
    std::uint64_t parks = 0;
    std::uint64_t unparks = 0;
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
    Digest all;
    for (std::size_t k = 0; k < reference.size(); ++k) {
        const ClusterResult &r = reference[k];
        submitted += r.jobsSubmitted;
        completed += r.jobsCompleted;
        lost += r.jobsLost;
        dropped += r.jobsDropped;
        failedJobs += r.jobsFailed;
        nodeSeconds += static_cast<double>(kNodes) * r.makespan;
        // One epoch per dispatch interval (1 s) of makespan.
        epochs += r.makespan / ClusterConfig{}.dispatchInterval;
        for (const NodeSummary &n : r.nodes)
            parked += n.parkedTime;
        parks += r.autoscaleParks;
        unparks += r.autoscaleUnparks;
        crashes += r.nodeCrashes;
        restarts += r.nodeRestarts;
        all.add(refDigest[k]);
    }

    rep.check("submitted = completed + lost + dropped", unbalanced == 0,
              std::to_string(submitted) + " submitted, "
                  + std::to_string(completed) + " completed, "
                  + std::to_string(lost) + " lost, "
                  + std::to_string(dropped) + " dropped over "
                  + std::to_string(kFleets) + " fleets");
    rep.check("per-node energies sum to the total", energyMismatch == 0,
              std::to_string(energyMismatch) + " fleet runs off");
    rep.check("fleet results identical across rounds"
                  + std::string(opt.trace ? " (traced and untraced)" : ""),
              mismatched == 0, std::to_string(mismatched) + " mismatches");

    // The modelled figures of the fleet at the run seed, as
    // ext_cluster_scaling reports them for that seed.
    const ClusterResult &r = reference.front();
    rep.scoped = {
        {"sim_rate", nodeSeconds / median(rep.roundWallS)},
        {"failed_frac", static_cast<double>(lost + dropped + failedJobs)
                            / static_cast<double>(submitted)},
        {"sim_energy_per_job_j", r.energyPerJob()},
        {"sim_latency_p99_s", r.latencyP99},
    };
    rep.notes.emplace_back("output_digest", all.hex());
    rep.notes.emplace_back("workers", std::to_string(kWorkers));
    rep.notes.emplace_back("fleets_per_round", std::to_string(kFleets));

    if (!opt.trace)
        return rep;

    const double perRoundWindows = median(windows);
    const double fleets = static_cast<double>(kFleets);
    rep.layers = {
        {"cluster.build_ms", build.meanUs() * 1e-3},
        {"cluster.windows", perRoundWindows / fleets},
        {"cluster.epochs_per_window", epochs / perRoundWindows},
        {"cluster.node_epoch_ns",
         static_cast<double>(advance.ns)
             / (static_cast<double>(windows.size()) * epochs
                * static_cast<double>(kNodes))},
        {"cluster.parked_frac", parked / nodeSeconds},
        {"cluster.autoscale_parks", static_cast<double>(parks) / fleets},
        {"cluster.autoscale_unparks",
         static_cast<double>(unparks) / fleets},
        {"inject.node_crashes", static_cast<double>(crashes) / fleets},
        {"inject.node_restarts", static_cast<double>(restarts) / fleets},
        {"inject.jobs_lost", static_cast<double>(lost) / fleets},
    };
    return rep;
}

} // namespace perfbench
