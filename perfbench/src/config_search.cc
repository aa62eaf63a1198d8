/**
 * @file
 * Workload `config_search`: MODELSEARCH optimum queries.  For every
 * catalog program on both chips, SweepSearch::searchGroup finds the
 * argmin over a threads x ladder-frequency grid, first for energy and
 * then for ED2P; serial, audit off.  Each round builds the searchers
 * and grids (the set-up) and runs every query (the measured phase;
 * one searchGroup() is one task).
 *
 * After the first round the answers are checked outside the timed
 * phase: every reported optimum is re-simulated on a pristine machine
 * arena and must match GroupResult::best bit for bit, and one group
 * per (chip, objective) is scanned exhaustively through a memo cache
 * shared by both objectives, whose argmin must match the query's.
 */

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "ecosched/ecosched.hh"
#include "workloads.hh"

namespace perfbench {

using namespace ecosched;
using namespace ecosched::search;

namespace {

constexpr std::array<Objective, 2> kObjectives = {Objective::Energy,
                                                   Objective::Ed2p};

/// Untraced rounds at least, so a query's latency is its median over
/// three rounds or more.
constexpr std::size_t kMinRounds = 3;

/// Coarse thread axis (powers of four up to the core count, plus
/// the full chip) so a round of every program stays affordable.
std::vector<std::uint32_t>
threadAxis(const ChipSpec &chip)
{
    std::vector<std::uint32_t> axis;
    for (std::uint32_t t = 1; t < chip.numCores; t *= 4)
        axis.push_back(t);
    axis.push_back(chip.numCores);
    return axis;
}

/// One query: a program's grid on one chip.
struct Group
{
    const BenchmarkProfile *bench = nullptr;
    std::vector<ConfigPoint> points;
};

/// Per-chip grids for every catalog program, in a seed-shuffled
/// order, on the seed's chip sample.
std::vector<Group>
buildGroups(const ChipSpec &chip, std::uint64_t seed)
{
    std::vector<const BenchmarkProfile *> programs;
    for (const BenchmarkProfile &p : Catalog::instance().all())
        programs.push_back(&p);
    Rng rng(seed);
    for (std::size_t i = programs.size(); i > 1; --i)
        std::swap(programs[i - 1], programs[rng.uniformInt(0, i - 1)]);

    std::vector<Group> groups;
    for (const BenchmarkProfile *bench : programs) {
        Group g;
        g.bench = bench;
        for (std::uint32_t t : threadAxis(chip)) {
            for (Hertz f : chip.frequencyLadder()) {
                g.points.push_back({bench, t, Allocation::Spreaded, f,
                                    /*undervolt=*/true, seed});
            }
        }
        groups.push_back(std::move(g));
    }
    return groups;
}

bool
sameBytes(const RunStats &a, const RunStats &b)
{
    return std::memcmp(&a, &b, sizeof(RunStats)) == 0;
}

std::uint64_t
resultDigest(const GroupResult &r)
{
    Digest d;
    d.add(static_cast<std::uint64_t>(r.bestIndex));
    d.add(r.best.runtime).add(r.best.energy).add(r.best.energyNormalized)
        .add(r.best.ed2p).add(r.best.meanL3PerMCycles).add(r.best.meanIpc);
    for (std::uint8_t s : r.simulated)
        d.add(std::uint64_t{s});
    d.add(r.stats.totalPoints).add(r.stats.simulatedPoints)
        .add(r.stats.prunedPoints).add(r.stats.seedPoints)
        .add(r.stats.waves);
    return d.value();
}

/// Grid-order strict-< argmin of @p objective, as an exhaustive scan
/// reports it.
std::size_t
exhaustiveArgmin(Objective objective, const std::vector<RunStats> &all)
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < all.size(); ++i) {
        if (objectiveValue(objective, all[i])
            < objectiveValue(objective, all[best]))
            best = i;
    }
    return best;
}

} // namespace

Report
runConfigSearch(const Options &opt, Tracer &tracer)
{
    Report rep;
    const std::array<ChipSpec, 2> chips = {xGene2(), xGene3()};
    EngineConfig ec;
    ec.jobs = 1;
    ec.baseSeed = opt.seed;
    const ExperimentEngine engine(ec);

    std::vector<std::uint64_t> refDigest;
    std::vector<std::uint8_t> groupFailed;
    std::uint64_t mismatched = 0;
    std::uint64_t resimMismatch = 0;
    std::uint64_t argminMismatch = 0;
    std::uint64_t groupCount = 0;

    // Layer figures, measured on the first round and its checks.
    SearchStats totals;
    double queryNs = 0.0;
    Tally bound;
    Tally simRun;
    Tally rewind;
    double simSeconds = 0.0;
    double memoHitFrac = 0.0;
    double arenaReuseFrac = 0.0;

    bool first = true;
    runRounds(opt, kMinRounds, [&](bool traced) {
        tracer.setEnabled(traced);

        auto [groups, searchers] = repeatedSetup(rep, [&] {
            std::vector<std::vector<Group>> grids;
            std::vector<std::unique_ptr<SweepSearch>> built;
            for (const ChipSpec &chip : chips) {
                grids.push_back(buildGroups(chip, opt.seed));
                for (Objective objective : kObjectives) {
                    SweepSearch::Config cfg;
                    cfg.objective = objective;
                    cfg.audit = false;
                    built.push_back(
                        std::make_unique<SweepSearch>(engine, chip, cfg));
                }
            }
            return std::make_pair(std::move(grids), std::move(built));
        });

        // results[(c * 2 + o) * groups + g]
        std::vector<GroupResult> results;
        std::size_t tasks = 0;
        const std::int64_t m0 = nowNs();
        for (std::size_t c = 0; c < chips.size(); ++c) {
            for (std::size_t o = 0; o < kObjectives.size(); ++o) {
                SweepSearch &searcher = *searchers[c * 2 + o];
                for (const Group &g : groups[c]) {
                    Scope span(tracer, "search.group", tracer.newTask());
                    const std::int64_t t0 = nowNs();
                    results.push_back(searcher.searchGroup(g.points));
                    const std::int64_t dt = nowNs() - t0;
                    if (!traced)
                        rep.taskMs.push_back(static_cast<double>(dt) * 1e-6);
                    if (first)
                        queryNs += static_cast<double>(dt);
                    ++tasks;
                }
            }
        }
        const double wall = secondsBetween(m0, nowNs());
        (traced ? rep.tracedWallS : rep.roundWallS).push_back(wall);

        rep.attempted += tasks;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const std::uint64_t d = resultDigest(results[i]);
            if (first) {
                refDigest.push_back(d);
                groupFailed.push_back(0);
            } else if (refDigest[i] != d) {
                ++mismatched;
                ++rep.failed;
                groupFailed[i] = 1;
            }
        }
        if (!first)
            return;
        first = false;
        groupCount = results.size();
        for (const auto &s : searchers)
            totals.accumulate(s->totals());

        // --- checks (outside the timed phase; traced in traced runs)
        tracer.setEnabled(opt.trace);
        MemoCache<RunStats> cache;
        MachinePool pool;
        for (std::size_t c = 0; c < chips.size(); ++c) {
            const ChipSpec &chip = chips[c];
            const std::size_t n = groups[c].size();
            const std::size_t scanned = opt.seed % n;
            for (std::size_t o = 0; o < kObjectives.size(); ++o) {
                const SweepSearch &searcher = *searchers[c * 2 + o];
                for (std::size_t g = 0; g < n; ++g) {
                    const std::size_t idx = (c * 2 + o) * n + g;
                    const GroupResult &res = results[idx];
                    const std::vector<ConfigPoint> &points =
                        groups[c][g].points;
                    const int task = tracer.newTask();

                    // Bound evaluation of the whole group, as the
                    // searcher does it before simulating anything; a
                    // layer figure, so traced runs only.
                    if (opt.trace) {
                        Scope span(tracer, "search.bound", task);
                        const std::int64_t t0 = nowNs();
                        double sink = 0.0;
                        for (const ConfigPoint &p : points) {
                            const ModelEval e =
                                searcher.model().evaluate(p);
                            sink += kObjectives[o] == Objective::Energy
                                ? searcher.model().lowerBoundEnergy(e)
                                : searcher.model().lowerBoundEd2p(e);
                        }
                        bound.add(nowNs() - t0);
                        tracer.annotate(span.id(), "bound_sum", sink);
                    }

                    // Re-simulate the reported optimum on a pristine
                    // arena.
                    const ConfigPoint &p = points[res.bestIndex];
                    auto lease = pool.acquire(
                        machineArenaKey(chip, p.seed),
                        [&] {
                            MachineConfig mc;
                            mc.seed = p.seed;
                            return std::make_unique<MachineArena>(chip, mc);
                        },
                        [&](MachineArena &arena) {
                            Scope span(tracer, "sim.rewind", task);
                            const std::int64_t t0 = nowNs();
                            arena.machine.restore(arena.pristine);
                            rewind.add(nowNs() - t0);
                        });
                    RunStats again;
                    {
                        Scope span(tracer, "sim.run", task);
                        const std::int64_t t0 = nowNs();
                        again = runConfigurationOn(lease->machine, *p.bench,
                                                   p.threads, p.alloc,
                                                   p.freq, p.undervolt);
                        simRun.add(nowNs() - t0);
                    }
                    simSeconds += again.runtime;
                    bool ok = sameBytes(again, res.best);
                    resimMismatch += ok ? 0 : 1;

                    // Exhaustive scan of one group per (chip,
                    // objective); both objectives share the cache.
                    if (g == scanned) {
                        Scope span(tracer, "exp.exhaustive_scan", task);
                        const std::vector<RunStats> all =
                            runConfigurations(engine, chip, points, &cache,
                                              &pool);
                        const std::size_t best =
                            exhaustiveArgmin(kObjectives[o], all);
                        const bool match = best == res.bestIndex
                            && sameBytes(all[best], res.best);
                        argminMismatch += match ? 0 : 1;
                        ok = ok && match;
                    }
                    if (!ok && !groupFailed[idx]) {
                        groupFailed[idx] = 1;
                        ++rep.failed;
                    }
                }
            }
        }
        const std::size_t lookups = cache.hits() + cache.misses();
        memoHitFrac = lookups == 0 ? 0.0
                                   : static_cast<double>(cache.hits())
                                         / static_cast<double>(lookups);
        const auto ps = pool.stats();
        arenaReuseFrac = static_cast<double>(ps.reuses)
            / static_cast<double>(ps.builds + ps.reuses);
    });

    rep.check("re-simulated optima match GroupResult.best bit for bit",
              resimMismatch == 0,
              std::to_string(resimMismatch) + " of "
                  + std::to_string(groupCount) + " differ");
    rep.check("exhaustive argmin matches one group per (chip, objective)",
              argminMismatch == 0,
              std::to_string(argminMismatch) + " of 4 differ");
    rep.check("query results identical across rounds"
                  + std::string(opt.trace ? " (traced and untraced)" : ""),
              mismatched == 0, std::to_string(mismatched) + " mismatches");

    std::uint64_t failedGroups = 0;
    for (std::uint8_t f : groupFailed)
        failedGroups += f;
    rep.scoped = {{"failed_frac", static_cast<double>(failedGroups)
                                      / static_cast<double>(groupCount)}};
    Digest all;
    for (std::uint64_t d : refDigest)
        all.add(d);
    rep.notes.emplace_back("output_digest", all.hex());
    rep.notes.emplace_back("groups_per_round", std::to_string(groupCount));

    if (!opt.trace)
        return rep;
    rep.notes.emplace_back(
        "search.bound_share",
        std::to_string(static_cast<double>(bound.ns) / queryNs));
    rep.layers = {
        {"sim.run_us_per_sim_s",
         static_cast<double>(simRun.ns) * 1e-3 / simSeconds},
        {"sim.rewind_us", rewind.meanUs()},
        {"search.bound_us", bound.meanUs()},
        {"search.simulated_frac",
         static_cast<double>(totals.simulatedPoints)
             / static_cast<double>(totals.totalPoints)},
        {"search.waves", static_cast<double>(totals.waves)},
        {"exp.memo_hit_frac", memoHitFrac},
        {"exp.arena_reuse_frac", arenaReuseFrac},
    };
    return rep;
}

} // namespace perfbench
