#include "spans.hpp"

#include <ostream>

#include "support/assert.hpp"
#include "support/durable/atomic_file.hpp"
#include "support/json.hpp"

namespace e2e {

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

std::int64_t SpanRecorder::now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

int SpanRecorder::begin(std::string name) {
    const int id = static_cast<int>(spans_.size());
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{std::move(name), now_ns(), 0, parent});
    open_.push_back(id);
    return id;
}

void SpanRecorder::end(int id) {
    memopt::require(!open_.empty() && open_.back() == id,
                    "SpanRecorder: spans must close innermost first");
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    open_.pop_back();
}

bool SpanRecorder::inside(int span, int root) const {
    for (int s = span; s >= 0; s = spans_[static_cast<std::size_t>(s)].parent)
        if (s == root) return true;
    return false;
}

double SpanRecorder::total_seconds(const std::string& name, int root) const {
    double total = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].name == name && inside(static_cast<int>(i), root))
            total += spans_[i].seconds();
    return total;
}

double SpanRecorder::unattributed_fraction(int root) const {
    const Span& r = spans_.at(static_cast<std::size_t>(root));
    const std::int64_t wall = r.end_ns - r.start_ns;
    if (wall <= 0) return 0.0;
    std::int64_t covered = 0;
    for (const Span& s : spans_)
        if (s.parent == root) covered += s.end_ns - s.start_ns;
    return static_cast<double>(wall - covered) / static_cast<double>(wall);
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
    memopt::atomic_write(path, [&](std::ostream& os) {
        memopt::JsonWriter w(os, 0);
        w.begin_object();
        w.member("displayTimeUnit", "ms");
        w.key("traceEvents").begin_array();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            w.begin_object();
            w.member("name", s.name);
            w.member("cat", s.name.substr(0, s.name.find('.')));
            w.member("ph", "X");
            w.member("ts", static_cast<double>(s.start_ns) * 1e-3);
            w.member("dur", static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
            w.member("pid", 1);
            w.member("tid", 1);
            w.key("args").begin_object();
            w.member("id", static_cast<std::uint64_t>(i));
            w.member("parent", s.parent);
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        os << '\n';
    });
}

}  // namespace e2e
