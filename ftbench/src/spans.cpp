#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>

#include "bench.hpp"

namespace ftb {

namespace {

std::uint32_t
threadIndex()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t index = next.fetch_add(1);
    return index;
}

} // namespace

std::int64_t
SpanRecorder::add(const char *name, std::int64_t parent,
                  std::uint64_t run, std::uint64_t start_ns,
                  std::uint64_t end_ns, std::uint64_t calls)
{
    const std::uint32_t thread = threadIndex();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(
        Span{name, start_ns, end_ns, parent, run, thread, calls});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t
SpanRecorder::open(const char *name, std::int64_t parent,
                   std::uint64_t run)
{
    const std::uint64_t now = nowNs();
    return add(name, parent, run, now, now);
}

void
SpanRecorder::close(std::int64_t index)
{
    const std::uint64_t now = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].endNs = now;
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    const std::vector<Span> all = spans();
    std::ofstream out(path);
    if (!out)
        return false;
    const std::uint64_t origin = all.empty() ? 0 : all.front().startNs;
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
            << ",\"ts\":" << static_cast<double>(s.startNs - origin) / 1e3
            << ",\"dur\":" << static_cast<double>(s.durationNs()) / 1e3
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
            << ",\"run\":" << s.run << ",\"calls\":" << s.calls << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

std::map<std::string, NameTotals>
totalsByName(const std::vector<Span> &spans,
             const std::function<bool(std::uint64_t run)> &keep)
{
    std::vector<std::uint64_t> covered(spans.size(), 0);
    for (const Span &s : spans)
        if (s.parent >= 0)
            covered[static_cast<std::size_t>(s.parent)] += s.durationNs();
    std::map<std::string, NameTotals> totals;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (keep && !keep(s.run))
            continue;
        NameTotals &t = totals[s.name];
        t.totalNs += s.durationNs();
        t.selfNs += s.durationNs() - std::min(covered[i], s.durationNs());
        ++t.spans;
    }
    return totals;
}

} // namespace ftb
