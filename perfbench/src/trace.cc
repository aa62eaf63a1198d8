#include "trace.hh"

#include <fstream>
#include <map>

namespace perfbench {

namespace {

double
toUs(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-3;
}

/// Per-name aggregate of the summary.
struct LayerTotal
{
    std::uint64_t count = 0;
    std::int64_t totalNs = 0;
    std::int64_t selfNs = 0;
};

} // namespace

int
Tracer::open(const char *name, int task)
{
    if (!enabled)
        return -1;
    Span s;
    s.name = name;
    s.start = nowNs();
    s.parent = openStack.empty() ? -1 : openStack.back();
    s.task = task;
    spans.push_back(std::move(s));
    const int id = static_cast<int>(spans.size()) - 1;
    openStack.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    if (id < 0)
        return;
    Span &s = spans[static_cast<std::size_t>(id)];
    s.end = nowNs();
    if (!openStack.empty() && openStack.back() == id)
        openStack.pop_back();
    if (s.parent >= 0)
        spans[static_cast<std::size_t>(s.parent)].childNs +=
            s.end - s.start;
}

void
Tracer::attach(int id, const char *name, const Tally &tally)
{
    if (id < 0 || tally.calls == 0)
        return;
    Span &s = spans[static_cast<std::size_t>(id)];
    s.tallies.emplace_back(name, tally);
    s.childNs += tally.ns;
}

void
Tracer::annotate(int id, const char *key, double value)
{
    if (id < 0)
        return;
    spans[static_cast<std::size_t>(id)].notes.emplace_back(key, value);
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::ofstream os(path);
    os.precision(15);
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
           << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
           << toUs(s.start - origin)
           << ", \"dur\": " << toUs(s.end - s.start)
           << ", \"args\": {\"id\": " << i
           << ", \"parent\": " << s.parent << ", \"task\": " << s.task
           << ", \"end_us\": " << toUs(s.end - origin)
           << ", \"self_us\": " << toUs(s.end - s.start - s.childNs);
        for (const auto &[name, t] : s.tallies) {
            os << ", \"" << name << ".calls\": " << t.calls << ", \""
               << name << ".us\": " << toUs(t.ns);
        }
        for (const auto &[key, value] : s.notes)
            os << ", \"" << key << "\": " << value;
        os << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

bool
Tracer::writeSummary(const std::string &path) const
{
    std::map<std::string, LayerTotal> layers;
    for (const Span &s : spans) {
        LayerTotal &l = layers[s.name];
        ++l.count;
        l.totalNs += s.end - s.start;
        l.selfNs += s.end - s.start - s.childNs;
        for (const auto &[name, t] : s.tallies) {
            LayerTotal &c = layers[name];
            c.count += t.calls;
            c.totalNs += t.ns;
            c.selfNs += t.ns;
        }
    }
    std::ofstream os(path);
    os.precision(15);
    os << "{\"layers\": {";
    bool first = true;
    for (const auto &[name, l] : layers) {
        os << (first ? "\n" : ",\n") << "  \"" << name
           << "\": {\"count\": " << l.count
           << ", \"total_ms\": " << toUs(l.totalNs) * 1e-3
           << ", \"self_ms\": " << toUs(l.selfNs) * 1e-3 << "}";
        first = false;
    }
    os << "\n}}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
