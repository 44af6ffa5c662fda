#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {

int
Tracer::open(const std::string &name, int study)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.study = study >= 0 || span.parent < 0
                     ? study
                     : spans_[static_cast<std::size_t>(span.parent)].study;
    span.start = now();
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
}

void
Tracer::close(int span)
{
    if (span < 0)
        return;
    spans_[static_cast<std::size_t>(span)].end = now();
    // Scopes nest, so the span being closed is the innermost one.
    if (!stack_.empty() && stack_.back() == span)
        stack_.pop_back();
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &span : spans_)
        if (span.name == name)
            out.push_back(span.end - span.start);
    return out;
}

double
Tracer::total(const std::string &name) const
{
    double sum = 0.0;
    for (const double d : durations(name))
        sum += d;
    return sum;
}

std::vector<Tracer::Layer>
Tracer::layers() const
{
    // Children of one span run one after another on the benchmark's
    // single thread, so their coverage of the parent is their sum.
    std::vector<double> childCover(spans_.size(), 0.0);
    for (const Span &span : spans_)
        if (span.parent >= 0)
            childCover[static_cast<std::size_t>(span.parent)] +=
                span.end - span.start;

    std::map<std::string, Layer> byName;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        Layer &layer = byName[spans_[i].name];
        layer.name = spans_[i].name;
        const double d = spans_[i].end - spans_[i].start;
        ++layer.count;
        layer.total += d;
        layer.self += d - childCover[i];
    }
    std::vector<Layer> out;
    for (auto &entry : byName)
        out.push_back(entry.second);
    std::sort(out.begin(), out.end(),
              [](const Layer &a, const Layer &b) {
                  return a.self > b.self;
              });
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const double epoch = spans_.empty() ? 0.0 : spans_.front().start;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"span\": %zu, \"parent\": %d, "
                     "\"study\": %d}}%s\n",
                     s.name.c_str(), (s.start - epoch) * 1e6,
                     (s.end - s.start) * 1e6, i, s.parent, s.study,
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "], \"displayTimeUnit\": \"ms\"}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
