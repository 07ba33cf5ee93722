#include "spans.hh"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

SpanRecorder::SpanRecorder() : t0_(std::chrono::steady_clock::now()) {}

int
SpanRecorder::open(const std::string &name, std::uint64_t id)
{
    Span s;
    s.name = name;
    s.id = id;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0_)
                    .count();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
}

void
SpanRecorder::close(int index)
{
    if (stack_.empty() || stack_.back() != index)
        throw std::logic_error("span closed out of order: " +
                               spans_.at(index).name);
    spans_[index].endNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count();
    stack_.pop_back();
}

bool
SpanRecorder::under(int span, int root) const
{
    if (root < 0)
        return true;
    for (int s = span; s >= 0; s = spans_[s].parent)
        if (s == root)
            return true;
    return false;
}

double
SpanRecorder::totalSeconds(const std::string &name, int root) const
{
    double total = 0.0;
    for (double d : durations(name, root))
        total += d;
    return total;
}

std::vector<double>
SpanRecorder::durations(const std::string &name, int root) const
{
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].name == name && under(static_cast<int>(i), root))
            out.push_back(spans_[i].seconds());
    return out;
}

std::map<std::string, double>
SpanRecorder::selfTimeByModule(int root) const
{
    std::vector<double> self(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (!under(static_cast<int>(i), root))
            continue;
        self[i] += spans_[i].seconds();
        if (static_cast<int>(i) != root && spans_[i].parent >= 0)
            self[spans_[i].parent] -= spans_[i].seconds();
    }
    std::map<std::string, double> byModule;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (!under(static_cast<int>(i), root))
            continue;
        const std::string module =
            static_cast<int>(i) == root
                ? "unattributed"
                : spans_[i].name.substr(0, spans_[i].name.find('.'));
        byModule[module] += self[i];
    }
    return byModule;
}

void
SpanRecorder::writeChromeJson(std::ostream &os) const
{
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                      "\"dur\":%.3f",
                      s.startNs * 1e-3, (s.endNs - s.startNs) * 1e-3);
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\","
           << buf << ",\"args\":{\"span\":" << i
           << ",\"parent\":" << s.parent << ",\"id\":" << s.id << "}}";
    }
    os << "\n]}\n";
}

void
printSelfTimeTable(std::ostream &os, const SpanRecorder &rec, int root,
                   const std::string &title)
{
    const double wall = rec.spans().at(root).seconds();
    const auto byModule = rec.selfTimeByModule(root);
    double sum = 0.0;
    char line[128];
    os << "self time by module: " << title << "\n";
    for (const auto &[module, seconds] : byModule) {
        std::snprintf(line, sizeof(line), "  %-14s %10.4f s  %6.2f%%\n",
                      module.c_str(), seconds,
                      wall > 0.0 ? 100.0 * seconds / wall : 0.0);
        os << line;
        sum += seconds;
    }
    std::snprintf(line, sizeof(line),
                  "  %-14s %10.4f s  (traced wall %.4f s)\n", "sum", sum,
                  wall);
    os << line;
}

} // namespace perfbench
