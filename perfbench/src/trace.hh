/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * Spans are opened around the benchmark's own calls into each layer's
 * public functions (never inside the program).  Calls too frequent to
 * keep one span each — governor ticks, horizon queries, daemon hooks
 * — are folded into a Tally per enclosing span.  Everything stays in
 * memory until the run ends, then is written once as Chrome
 * trace-event JSON (viewable in Perfetto or chrome://tracing) plus a
 * per-layer self-time summary.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic host time in nanoseconds.
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Seconds between two nowNs() readings.
inline double
secondsBetween(std::int64_t begin, std::int64_t end)
{
    return static_cast<double>(end - begin) * 1e-9;
}

/// Call count and summed host time of one aggregated call site.
struct Tally
{
    std::uint64_t calls = 0;
    std::int64_t ns = 0;

    void add(std::int64_t duration)
    {
        ++calls;
        ns += duration;
    }

    void merge(const Tally &other)
    {
        calls += other.calls;
        ns += other.ns;
    }

    /// Mean microseconds per call (0 when never called).
    double meanUs() const
    {
        return calls == 0 ? 0.0
                          : static_cast<double>(ns) * 1e-3
                                / static_cast<double>(calls);
    }
};

/**
 * The recorder.  Disabled tracers ignore every call, so workload code
 * records unconditionally and the untraced run pays one branch per
 * span.
 */
class Tracer
{
  public:
    /// Turn recording on or off (traced and untraced rounds
    /// alternate within one traced run).
    void setEnabled(bool on) { enabled = on; }

    /// Fresh task id: spans of one task (a replay, a cluster window,
    /// a search query) share it.
    int newTask() { return ++lastTask; }

    /// Open a span as a child of the innermost open span; returns
    /// its id, or -1 when disabled.
    int open(const char *name, int task);

    /// Close span @p id (no-op for -1).
    void close(int id);

    /// Fold an aggregated call site into span @p id.
    void attach(int id, const char *name, const Tally &tally);

    /// Record a numeric annotation on span @p id.
    void annotate(int id, const char *key, double value);

    /// Write every span as Chrome trace-event JSON.
    bool writeChrome(const std::string &path) const;

    /**
     * Write the per-layer summary: for each span or tally name, the
     * call count, inclusive time and self time (inclusive minus the
     * part covered by child spans and tallies).
     */
    bool writeSummary(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        std::int64_t start = 0;
        std::int64_t end = 0;
        int parent = -1;
        int task = 0;
        std::int64_t childNs = 0;
        std::vector<std::pair<std::string, Tally>> tallies;
        std::vector<std::pair<std::string, double>> notes;
    };

    bool enabled = false;
    int lastTask = 0;
    std::int64_t origin = nowNs();
    std::vector<Span> spans;
    std::vector<int> openStack;
};

/// RAII span.
class Scope
{
  public:
    Scope(Tracer &tracer, const char *name, int task)
        : owner(tracer), spanId(tracer.open(name, task))
    {
    }
    ~Scope() { owner.close(spanId); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int id() const { return spanId; }

  private:
    Tracer &owner;
    int spanId;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
