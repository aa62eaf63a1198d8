#include "bench.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

void
writeArray(std::ostream &os, const std::vector<double> &v)
{
    os << "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        os << (i ? ", " : "") << v[i];
    os << "]";
}

void
writePairs(std::ostream &os,
           const std::vector<std::pair<std::string, double>> &v)
{
    os << "{";
    for (std::size_t i = 0; i < v.size(); ++i)
        os << (i ? ", " : "") << quoted(v[i].first) << ": "
           << v[i].second;
    os << "}";
}

} // namespace

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
Report::toJson() const
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"workload\": " << quoted(workload) << ", \"seed\": " << seed
       << ",\n \"setup_s\": ";
    writeArray(os, setupS);
    os << ",\n \"round_wall_s\": ";
    writeArray(os, roundWallS);
    os << ",\n \"traced_wall_s\": ";
    writeArray(os, tracedWallS);
    os << ",\n \"task_ms\": ";
    writeArray(os, taskMs);
    os << ",\n \"peak_rss_mb\": " << peakRssMb()
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ",\n \"checks\": [";
    for (std::size_t i = 0; i < checks.size(); ++i) {
        os << (i ? ", " : "") << "{\"name\": " << quoted(checks[i].name)
           << ", \"ok\": " << (checks[i].ok ? "true" : "false")
           << ", \"detail\": " << quoted(checks[i].detail) << "}";
    }
    os << "],\n \"scoped\": ";
    writePairs(os, scoped);
    os << ",\n \"layers\": ";
    writePairs(os, layers);
    os << ",\n \"notes\": {";
    for (std::size_t i = 0; i < notes.size(); ++i)
        os << (i ? ", " : "") << quoted(notes[i].first) << ": "
           << quoted(notes[i].second);
    os << "}}\n";
    return os.str();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    // VmHWM is this process's own high-water mark; getrusage's
    // ru_maxrss would also count the parent's footprint at fork,
    // because Linux keeps it across execve.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

} // namespace perfbench
