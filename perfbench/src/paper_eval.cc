/**
 * @file
 * Workload `paper_eval`: the paper's headline experiment (§VI.B,
 * Tables III/IV).  Each round generates 1-hour server traces of both
 * chips from the seed (the set-up) and replays each serially under
 * Baseline, Safe Vmin, Placement and Optimal (the measured phase; one
 * replay is one task).  No stack pool: every replay constructs its
 * own stack, as the paper's tables do.
 */

#include <array>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "ecosched/ecosched.hh"
#include "probes.hh"
#include "workloads.hh"

namespace perfbench {

using namespace ecosched;

namespace {

constexpr std::array<PolicyKind, 4> kPolicies = {
    PolicyKind::Baseline, PolicyKind::SafeVmin, PolicyKind::Placement,
    PolicyKind::Optimal};
constexpr std::array<const char *, 4> kPolicyKeys = {
    "baseline", "safevmin", "placement", "optimal"};

/// One replayed trace: a chip and its generator seed.
struct Slot
{
    std::size_t chip = 0; ///< 0: X-Gene 2, 1: X-Gene 3
    std::uint64_t seed = 0;
};

/// Twenty X-Gene 2 and four X-Gene 3 traces per round.  One trace's
/// replay time swings by a fifth to a quarter from seed to seed with
/// its load phases, so a round replays 24 traces to keep a run's
/// figures from hinging on a few traces' load; X-Gene 2 traces replay
/// about five times faster, so they carry most of the averaging.
/// With 96 replays the median (rank 48) falls among the 80 X-Gene 2
/// replays, whose Baseline and daemon times overlap, and the tail
/// (rank 86, ten beyond it) inside the X-Gene 3 Baseline / Safe Vmin
/// replays (ranks 81-88), well above every X-Gene 2 replay and below
/// the X-Gene 3 daemon replays, so neither sits on an edge between
/// two groups of replay times.
constexpr std::array<std::size_t, 2> kPerChip = {20, 4};

/// The round's traces in replay order: each X-Gene 3 trace follows
/// five X-Gene 2 traces, so the replays behind every percentile are
/// spread over the whole round and sample the host's speed over all
/// of it, not over the stretch where one chip's replays would run.
/// Each chip's first trace uses the run seed itself, as the paper's
/// Table III/IV benches do; every other trace its own seed forked
/// from it.
std::vector<Slot>
traceSlots(std::uint64_t seed)
{
    const Rng root(seed);
    const std::size_t stride = kPerChip[0] / kPerChip[1];
    std::uint64_t stream = 0;
    std::vector<Slot> slots;
    for (std::size_t g = 0; g < kPerChip[1]; ++g) {
        for (std::size_t i = 0; i <= stride; ++i) {
            const std::size_t chip = i < stride ? 0 : 1;
            const bool paper = g == 0 && (i == 0 || i == stride);
            slots.push_back(
                {chip, paper ? seed : root.fork(++stream).next()});
        }
    }
    return slots;
}

/// Untraced rounds at least.  One round: a replay lasts 0.1-2 s, long
/// enough that a host hiccup does not move it.
constexpr std::size_t kMinRounds = 1;

/// Tables III/IV: energy savings and time penalty [%] of Safe Vmin,
/// Placement and Optimal against Baseline.
struct PaperTable
{
    std::array<double, 3> savings;
    std::array<double, 3> penalty;
};
constexpr std::array<PaperTable, 2> kPaper = {{
    {{11.6, 18.3, 25.2}, {0.0, 3.3, 3.3}}, // X-Gene 2 (Table III)
    {{10.9, 13.4, 22.3}, {0.0, 2.6, 2.6}}, // X-Gene 3 (Table IV)
}};

GeneratedWorkload
generateTrace(const ChipSpec &chip, std::uint64_t seed)
{
    GeneratorConfig gc;
    gc.duration = 3600.0;
    gc.maxCores = chip.numCores;
    gc.seed = seed;
    gc.chipName = chip.name;
    gc.referenceFrequency = chip.fMax;
    return WorkloadGenerator(gc).generate();
}

std::uint64_t
traceDigest(const GeneratedWorkload &w)
{
    Digest d;
    d.add(w.duration).add(std::uint64_t{w.maxCores});
    for (const WorkItem &item : w.items)
        d.add(item.arrival).add(item.benchmark).add(
            std::uint64_t{item.threads});
    return d.value();
}

/// Every simulated output of a replay, bit for bit.
std::uint64_t
resultDigest(const ScenarioResult &r)
{
    Digest d;
    d.add(r.completionTime).add(r.energy).add(r.averagePower).add(r.ed2p);
    d.add(std::uint64_t{r.processesCompleted})
        .add(std::uint64_t{r.processesFailed});
    d.add(r.latencyP50).add(r.latencyP95).add(r.latencyMax);
    d.add(r.migrations).add(r.voltageTransitions)
        .add(r.frequencyTransitions);
    d.add(static_cast<std::uint64_t>(r.worstOutcome));
    d.add(r.unsafeExposure).add(r.maxUnsafeDeficit);
    const DaemonStats &s = r.daemonStats;
    d.add(s.samplesTaken).add(s.classificationChanges)
        .add(s.plansComputed).add(s.placementsApplied)
        .add(s.voltageRaises).add(s.voltageDrops).add(s.monitorCpuTime);
    for (const TimelineSample &t : r.timeline) {
        d.add(t.time).add(t.power).add(t.loadAverage)
            .add(std::uint64_t{t.runningProcs}).add(t.voltage)
            .add(std::uint64_t{t.utilizedPmds}).add(t.temperature);
    }
    return d.value();
}

/// Mean absolute gap [pp] to Tables III/IV over the 12 published
/// savings and time penalties; @p results holds the four policies of
/// X-Gene 2 then of X-Gene 3.  Per-value gaps go to @p detail.
double
paperGap(const std::vector<ScenarioResult> &results,
         std::ostringstream &detail)
{
    double sum = 0.0;
    int n = 0;
    detail.precision(3);
    for (std::size_t c = 0; c < kPaper.size(); ++c) {
        const ScenarioResult &base = results[c * 4];
        for (std::size_t p = 1; p < 4; ++p) {
            const ScenarioResult &r = results[c * 4 + p];
            const double savings = 100.0 * (1.0 - r.energy / base.energy);
            const double penalty =
                100.0 * (r.completionTime / base.completionTime - 1.0);
            const double gs = savings - kPaper[c].savings[p - 1];
            const double gp = penalty - kPaper[c].penalty[p - 1];
            detail << (n ? " " : "") << (c == 0 ? "xg2." : "xg3.")
                   << kPolicyKeys[p] << ".savings=" << gs << " "
                   << (c == 0 ? "xg2." : "xg3.") << kPolicyKeys[p]
                   << ".penalty=" << gp;
            sum += std::fabs(gs) + std::fabs(gp);
            n += 2;
        }
    }
    return sum / n;
}

} // namespace

Report
runPaperEval(const Options &opt, Tracer &tracer)
{
    Report rep;
    const std::array<ChipSpec, 2> chips = {xGene2(), xGene3()};
    const std::vector<Slot> slots = traceSlots(opt.seed);

    std::vector<ScenarioResult> reference;
    std::vector<std::uint64_t> refResult;
    std::vector<std::uint64_t> refTrace;
    std::uint64_t incomplete = 0;
    std::uint64_t mismatched = 0;
    std::uint64_t processes = 0;

    // Traced-round accumulators.
    Tally generate;
    ReplayProbe probeTotal;
    std::array<std::vector<double>, 4> replayMs;
    std::array<std::int64_t, 4> replayNs = {};
    std::array<std::int64_t, 4> childNs = {};
    std::array<double, 4> steps = {};
    std::size_t tracedRounds = 0;

    runRounds(opt, kMinRounds, [&](bool traced) {
        tracer.setEnabled(traced);

        const std::vector<GeneratedWorkload> traces = repeatedSetup(rep, [&] {
            std::vector<GeneratedWorkload> out;
            for (const Slot &slot : slots) {
                Scope span(tracer, "workloads.generate", tracer.newTask());
                const std::int64_t t0 = nowNs();
                out.push_back(generateTrace(chips[slot.chip], slot.seed));
                if (traced)
                    generate.add(nowNs() - t0);
            }
            return out;
        });
        for (std::size_t c = 0; c < traces.size(); ++c) {
            const std::uint64_t d = traceDigest(traces[c]);
            if (refTrace.size() <= c)
                refTrace.push_back(d);
            else if (refTrace[c] != d)
                ++mismatched;
        }

        std::array<double, 4> roundReplayMs = {};
        const std::int64_t m0 = nowNs();
        for (std::size_t t = 0; t < slots.size(); ++t) {
            const std::size_t c = slots[t].chip;
            for (std::size_t p = 0; p < kPolicies.size(); ++p) {
                ScenarioConfig sc;
                sc.chip = chips[c];
                sc.policy = kPolicies[p];
                ReplayProbe probe;
                if (traced)
                    sc.instrument = probeInstaller(kPolicies[p], probe);

                ScenarioResult r;
                std::int64_t dt = 0;
                {
                    Scope span(tracer, "core.replay", tracer.newTask());
                    const std::int64_t t0 = nowNs();
                    r = ScenarioRunner(sc).run(traces[t]);
                    dt = nowNs() - t0;
                    tracer.attach(span.id(), "os.governor_tick",
                                  probe.governorTick);
                    tracer.attach(span.id(), "os.horizon", probe.horizon);
                    tracer.attach(span.id(), "os.spread_place",
                                  probe.spreadPlace);
                    tracer.attach(span.id(), "core.daemon_tick",
                                  probe.daemonTick);
                    tracer.attach(span.id(), "core.daemon_place",
                                  probe.daemonPlace);
                    tracer.annotate(span.id(), "chip", double(c));
                    tracer.annotate(span.id(), "trace", double(t));
                    tracer.annotate(span.id(), "policy", double(p));
                }

                ++rep.attempted;
                const std::size_t task = t * kPolicies.size() + p;
                const bool complete =
                    r.processesCompleted == traces[t].items.size()
                    && r.processesFailed == 0
                    && r.worstOutcome == RunOutcome::Ok;
                const std::uint64_t d = resultDigest(r);
                if (refResult.size() <= task) {
                    refResult.push_back(d);
                    reference.push_back(r);
                    processes += traces[t].items.size();
                }
                const bool same = refResult[task] == d;
                incomplete += complete ? 0 : 1;
                mismatched += same ? 0 : 1;
                if (!complete || !same)
                    ++rep.failed;

                if (traced) {
                    roundReplayMs[p] += static_cast<double>(dt) * 1e-6;
                    replayNs[p] += dt;
                    childNs[p] += probe.childNs();
                    steps[p] += std::round(r.completionTime / sc.timestep);
                    probeTotal.merge(probe);
                } else {
                    rep.taskMs.push_back(static_cast<double>(dt) * 1e-6);
                }
            }
        }
        const double wall = secondsBetween(m0, nowNs());
        if (traced) {
            rep.tracedWallS.push_back(wall);
            for (std::size_t p = 0; p < replayMs.size(); ++p)
                replayMs[p].push_back(roundReplayMs[p]);
            ++tracedRounds;
        } else {
            rep.roundWallS.push_back(wall);
        }
    });

    rep.check("every generated process completes, none fails",
              incomplete == 0,
              std::to_string(incomplete) + " incomplete replays");
    rep.check("traces and replays identical across rounds"
              + std::string(opt.trace ? " (traced and untraced)" : ""),
              mismatched == 0,
              std::to_string(mismatched) + " mismatches");

    std::ostringstream gaps;
    // The paper's experiment: each chip's trace at the run seed.
    std::vector<ScenarioResult> paperRuns;
    for (std::size_t t = 0; t < slots.size(); ++t) {
        if (slots[t].seed == opt.seed) {
            paperRuns.insert(paperRuns.end(),
                             reference.begin() + t * kPolicies.size(),
                             reference.begin() + (t + 1) * kPolicies.size());
        }
    }
    rep.scoped.emplace_back("paper_gap_pp", paperGap(paperRuns, gaps));
    rep.notes.emplace_back("paper_gap_values_pp", gaps.str());
    double simSeconds = 0.0;
    std::uint64_t failedProcs = 0;
    for (const ScenarioResult &r : reference) {
        simSeconds += r.completionTime;
        failedProcs += r.processesFailed;
    }
    rep.scoped.emplace_back("sim_rate", simSeconds / median(rep.roundWallS));
    rep.scoped.emplace_back(
        "failed_frac",
        static_cast<double>(incomplete + failedProcs)
            / static_cast<double>(processes));
    Digest all;
    for (std::uint64_t d : refResult)
        all.add(d);
    rep.notes.emplace_back("output_digest", all.hex());

    if (!opt.trace)
        return rep;

    // Stack construction, timed apart from the replays (each replay
    // builds the same stack internally).
    tracer.setEnabled(true);
    Tally stackBuild;
    for (const ChipSpec &chip : chips) {
        for (PolicyKind policy : kPolicies) {
            SimStackConfig scfg;
            scfg.chip = chip;
            scfg.policy = policy;
            Scope span(tracer, "core.stack_build", tracer.newTask());
            const std::int64_t t0 = nowNs();
            SimStack stack(scfg);
            stackBuild.add(nowNs() - t0);
        }
    }

    // Self time of the replay: everything outside the probed policy
    // calls (System and Machine stepping), per virtual 10 ms step.
    std::int64_t selfNs = 0;
    double virtualSteps = 0.0;
    for (std::size_t p = 0; p < kPolicies.size(); ++p) {
        selfNs += replayNs[p] - childNs[p];
        virtualSteps += steps[p];
        rep.notes.emplace_back(
            std::string("os.self_ns_per_step.") + kPolicyKeys[p],
            std::to_string(static_cast<double>(replayNs[p] - childNs[p])
                           / steps[p]));
    }

    const double rounds = static_cast<double>(tracedRounds);
    auto perRound = [&](const Tally &t) {
        return static_cast<double>(t.calls) / rounds;
    };
    rep.layers = {
        {"workloads.generate_ms", generate.meanUs() * 1e-3},
        {"core.stack_build_ms", stackBuild.meanUs() * 1e-3},
        {"core.replay_ms.baseline", median(replayMs[0])},
        {"core.replay_ms.safevmin", median(replayMs[1])},
        {"core.replay_ms.placement", median(replayMs[2])},
        {"core.replay_ms.optimal", median(replayMs[3])},
        {"core.daemon_tick_us", probeTotal.daemonTick.meanUs()},
        {"core.daemon_ticks", perRound(probeTotal.daemonTick)},
        {"core.daemon_place_us", probeTotal.daemonPlace.meanUs()},
        {"core.daemon_places", perRound(probeTotal.daemonPlace)},
        {"os.governor_tick_us", probeTotal.governorTick.meanUs()},
        {"os.governor_ticks", perRound(probeTotal.governorTick)},
        {"os.horizon_calls", perRound(probeTotal.horizon)},
        {"os.steps_per_window",
         virtualSteps / static_cast<double>(probeTotal.horizon.calls)},
        {"os.self_ns_per_step",
         static_cast<double>(selfNs) / virtualSteps},
    };
    return rep;
}

} // namespace perfbench
