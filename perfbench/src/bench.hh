/**
 * @file
 * Shared vocabulary of the benchmark workloads: run options, the raw
 * report each workload fills (samples, checks, per-layer figures),
 * the output digest that pins traced runs to untraced ones, and the
 * round loop that measures for the requested number of seconds.
 *
 * The program prints the report as one JSON document; perfbench/run.py
 * turns the raw samples into the named metrics.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "trace.hh"

namespace perfbench {

/// Command-line options of one run.
struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    /// Where a traced run writes its Chrome trace and summary.
    std::string traceDir = ".";
};

/// FNV-1a digest over the exact bytes of simulated outputs.
class Digest
{
  public:
    Digest &add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
        return *this;
    }
    Digest &add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        return add(bits);
    }
    Digest &add(const std::string &s)
    {
        add(static_cast<std::uint64_t>(s.size()));
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
        return *this;
    }
    std::uint64_t value() const { return h; }
    std::string hex() const;

  private:
    std::uint64_t h = 0xcbf29ce484222325ull;
};

/// Everything one run measured, before reduction to metrics.
struct Report
{
    std::string workload;
    std::uint64_t seed = 0;

    std::vector<double> setupS;       ///< one per set-up
    std::vector<double> roundWallS;   ///< untraced measured phases
    std::vector<double> tracedWallS;  ///< traced measured phases
    /// Untraced task latencies, round after round; every round runs
    /// the same task sequence.
    std::vector<double> taskMs;

    std::uint64_t attempted = 0; ///< tasks run
    std::uint64_t failed = 0;    ///< tasks whose output check failed

    struct Check
    {
        std::string name;
        bool ok = true;
        std::string detail;
    };
    std::vector<Check> checks;

    /// End-to-end figures defined on this workload only.
    std::vector<std::pair<std::string, double>> scoped;
    /// Per-layer figures (traced runs).
    std::vector<std::pair<std::string, double>> layers;
    /// Free-form facts for the human-readable lines.
    std::vector<std::pair<std::string, std::string>> notes;

    /// Record a check; returns @p ok.
    bool check(const std::string &name, bool ok,
               const std::string &detail = "")
    {
        checks.push_back({name, ok, detail});
        return ok;
    }

    bool allChecksPassed() const
    {
        for (const Check &c : checks) {
            if (!c.ok)
                return false;
        }
        return true;
    }

    std::string toJson() const;
};

/// Median of @p v (0 for an empty vector).
double median(std::vector<double> v);

/// Peak resident set size of this process [MiB].
double peakRssMb();

/// Set-ups per round; setup_s is the median over all of a run's.
/// Set-ups take milliseconds, so many of them cost little and keep
/// their median steady.
constexpr int kSetupsPerRound = 15;

/**
 * Time @p setup kSetupsPerRound times into Report::setupS and return
 * the last result (earlier ones are destroyed outside the timing).
 */
template <class Setup>
auto
repeatedSetup(Report &rep, Setup &&setup)
{
    for (int i = 1; i < kSetupsPerRound; ++i) {
        const std::int64_t t0 = nowNs();
        auto discarded = setup();
        rep.setupS.push_back(secondsBetween(t0, nowNs()));
    }
    const std::int64_t t0 = nowNs();
    auto kept = setup();
    rep.setupS.push_back(secondsBetween(t0, nowNs()));
    return kept;
}

/**
 * The measurement loop shared by every workload.  Calls
 * `round(traced)` — one set-up plus one measured phase — at least
 * @p minUntraced times untraced, and starts another round only while
 * it is expected to end within @p opt.seconds, judged by the longest
 * round so far.  A traced run alternates untraced and traced rounds,
 * starting untraced, and measures at least one of each, so the
 * tracing overhead is measured against the same run's own rounds.
 */
template <class Round>
void
runRounds(const Options &opt, std::size_t minUntraced, Round &&round)
{
    const std::int64_t start = nowNs();
    double longest = 0.0;
    std::size_t untraced = 0;
    bool tracedDone = !opt.trace;
    for (std::size_t r = 0;; ++r) {
        const bool traced = opt.trace && r % 2 == 1;
        const std::int64_t t0 = nowNs();
        round(traced);
        const double took = secondsBetween(t0, nowNs());
        longest = took > longest ? took : longest;
        if (traced)
            tracedDone = true;
        else
            ++untraced;
        const double elapsed = secondsBetween(start, nowNs());
        const bool enough = untraced >= (opt.trace ? 1 : minUntraced);
        if (tracedDone && enough && elapsed + longest > opt.seconds)
            break;
    }
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
