#include <atomic>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common.hpp"

namespace perfbench {

namespace {

std::uint32_t this_thread_index() {
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t index = next.fetch_add(1);
    return index;
}

/// Open spans of the current thread, innermost last.
std::vector<std::int64_t>& open_spans() {
    thread_local std::vector<std::int64_t> stack;
    return stack;
}

double micros(Clock::time_point origin, Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
}

std::string escaped(const std::string& text) {
    std::string out;
    for (const char c : text) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out;
}

} // namespace

std::int64_t Tracer::begin(const char* name, std::uint32_t request) {
    auto& stack = open_spans();
    Span span;
    span.name = name;
    span.parent = stack.empty() ? -1 : stack.back();
    span.thread = this_thread_index();
    span.request = request;
    span.start = Clock::now();
    std::int64_t id = 0;
    {
        const std::lock_guard lock(mutex_);
        id = static_cast<std::int64_t>(spans_.size());
        spans_.push_back(std::move(span));
    }
    stack.push_back(id);
    return id;
}

void Tracer::end(std::int64_t id) {
    const auto now = Clock::now();
    auto& stack = open_spans();
    if (!stack.empty() && stack.back() == id) stack.pop_back();
    const std::lock_guard lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = now;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
    const std::lock_guard lock(mutex_);
    std::vector<double> child_seconds(spans_.size(), 0.0);
    for (const auto& span : spans_) {
        if (span.parent >= 0) {
            child_seconds[static_cast<std::size_t>(span.parent)] +=
                seconds_between(span.start, span.end);
        }
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const double seconds =
            seconds_between(spans_[i].start, spans_[i].end);
        auto& totals = out[spans_[i].name];
        totals.seconds += seconds;
        totals.self_seconds += seconds - child_seconds[i];
        ++totals.count;
    }
    return out;
}

double Tracer::thread_seconds(std::uint32_t thread) const {
    const std::lock_guard lock(mutex_);
    double seconds = 0.0;
    for (const auto& span : spans_) {
        // Top-level spans only, so nested time is not counted twice.
        if (span.thread == thread && span.parent < 0) {
            seconds += seconds_between(span.start, span.end);
        }
    }
    return seconds;
}

std::int64_t Tracer::thread_of(const std::string& name) const {
    const std::lock_guard lock(mutex_);
    for (const auto& span : spans_) {
        if (span.name == name) return span.thread;
    }
    return -1;
}

void Tracer::write_chrome(const std::string& path) const {
    std::ofstream out(path);
    const std::lock_guard lock(mutex_);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto& span = spans_[i];
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                      "\"dur\":%.3f,",
                      span.thread, micros(origin_, span.start),
                      micros(span.start, span.end));
        out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << escaped(span.name)
            << buf << "\"args\":{\"id\":" << i
            << ",\"parent\":" << span.parent
            << ",\"request\":" << span.request << "}}";
    }
    out << "]}\n";
    if (!out) throw std::runtime_error("cannot write trace " + path);
}

} // namespace perfbench
