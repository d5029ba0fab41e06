// Layer spans recorded from the benchmark's side of the library API.
//
// The traced run wraps every call it makes into libmemopt in a span named
// after the library module it enters ("trace.profile", "cluster.apply",
// ...). Spans live in memory and are exported as Chrome trace-event JSON at
// the end of the run. Spans are recorded from the benchmark thread only:
// every library call and every TraceSource::next() the traced run observes
// happens on that thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

struct Span {
    std::string name;
    std::int64_t start_ns = 0;  ///< steady_clock, relative to the recorder's epoch
    std::int64_t end_ns = 0;
    int parent = -1;            ///< index of the enclosing span, -1 for a root

    double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class SpanRecorder {
public:
    SpanRecorder();

    /// Open a span as a child of the innermost open span.
    int begin(std::string name);
    /// Close span `id`; it must be the innermost open span.
    void end(int id);

    const std::vector<Span>& spans() const { return spans_; }

    /// Sum of the durations of every span called `name` inside span `root`.
    double total_seconds(const std::string& name, int root) const;

    /// Share of span `root`'s duration that none of its direct children
    /// covers (children are sequential, so their durations add up).
    double unattributed_fraction(int root) const;

    /// Write the spans as Chrome trace-event JSON (complete "X" events),
    /// viewable in Perfetto or chrome://tracing.
    void write_chrome_trace(const std::string& path) const;

    /// RAII span.
    class Scope {
    public:
        Scope(SpanRecorder& rec, std::string name) : rec_(rec), id_(rec.begin(std::move(name))) {}
        ~Scope() { rec_.end(id_); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        SpanRecorder& rec_;
        int id_;
    };

private:
    std::int64_t now_ns() const;
    bool inside(int span, int root) const;

    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

}  // namespace e2e
