// Tests of the benchmark itself: seeded input generation, failure-free
// tiny runs of every workload, and traced/untraced result equality.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace e2e {
// Readable test names in gtest/ctest output.
void PrintTo(Workload w, std::ostream* os) { *os << workload_name(w); }
}  // namespace e2e

namespace {

namespace fs = std::filesystem;
using e2e::Workload;

std::string fresh_dir(const std::string& name) {
    const fs::path dir = fs::current_path() / "e2e_test_inputs" / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

std::vector<char> file_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Concatenated bytes of every generated input (files, then the image).
std::vector<char> input_bytes(const e2e::Inputs& in) {
    std::vector<char> all;
    for (const std::string& f : in.files) {
        const std::vector<char> b = file_bytes(f);
        EXPECT_FALSE(b.empty()) << f;
        all.insert(all.end(), b.begin(), b.end());
    }
    all.insert(all.end(), in.image.begin(), in.image.end());
    return all;
}

class E2eBench : public ::testing::TestWithParam<Workload> {
protected:
    std::string name() const { return e2e::workload_name(GetParam()); }
};

TEST_P(E2eBench, SameSeedGivesByteIdenticalInputs) {
    const e2e::Sizes sizes = e2e::tiny_sizes();
    const e2e::Inputs a = e2e::make_inputs(GetParam(), 7, sizes, fresh_dir(name() + "-a"));
    const e2e::Inputs b = e2e::make_inputs(GetParam(), 7, sizes, fresh_dir(name() + "-b"));
    const e2e::Inputs c = e2e::make_inputs(GetParam(), 8, sizes, fresh_dir(name() + "-c"));
    EXPECT_EQ(input_bytes(a), input_bytes(b));
    EXPECT_NE(input_bytes(a), input_bytes(c));
    EXPECT_EQ(a.distinct_accesses, c.distinct_accesses);
    EXPECT_GT(a.distinct_accesses, 0u);
}

TEST_P(E2eBench, TinyRunHasNoFailures) {
    const e2e::Inputs in =
        e2e::make_inputs(GetParam(), 3, e2e::tiny_sizes(), fresh_dir(name() + "-smoke"));
    e2e::warm_inputs(in);
    const e2e::Outcome reference = e2e::run_workload(in, 1);
    for (const std::size_t jobs : {std::size_t{2}, std::size_t{4}}) {
        const e2e::Outcome o = e2e::run_workload(in, jobs);
        EXPECT_EQ(o.digest, reference.digest) << "jobs " << jobs;
        EXPECT_EQ(o.guards, reference.guards) << "jobs " << jobs;
    }
    for (const char* guard : {"sim_energy_uj", "sim_savings_pct"}) {
        ASSERT_EQ(reference.guards.count(guard), 1u) << guard;
        EXPECT_TRUE(std::isfinite(reference.guards.at(guard))) << guard;
    }
    EXPECT_GT(reference.guards.at("sim_energy_uj"), 0.0);
}

TEST_P(E2eBench, CanaryMatchesCheckedInDigest) {
    const e2e::Inputs in = e2e::make_inputs(GetParam(), e2e::kCanarySeed, e2e::tiny_sizes(),
                                            fresh_dir(name() + "-canary"));
    const std::uint64_t digest = e2e::run_workload(in, 4).digest;
    EXPECT_EQ(digest, e2e::canary_digest(GetParam()))
        << std::hex << "0x" << digest << " differs from the checked-in canary digest";
}

TEST_P(E2eBench, TracedCompositionEqualsEndToEndResult) {
    const e2e::Inputs in =
        e2e::make_inputs(GetParam(), 5, e2e::tiny_sizes(), fresh_dir(name() + "-traced"));
    const e2e::Outcome untraced = e2e::run_workload(in, 4);
    e2e::SpanRecorder rec;
    e2e::TracedExtras extras;
    const e2e::Outcome traced = e2e::run_workload_traced(in, 4, rec, extras);
    EXPECT_EQ(traced.results_json, untraced.results_json);
    EXPECT_EQ(traced.digest, untraced.digest);

    ASSERT_GE(extras.root_span, 0);
    EXPECT_EQ(rec.spans()[static_cast<std::size_t>(extras.root_span)].name, "bench.op");
    const std::map<std::string, double> layers = e2e::layer_metrics(rec, extras);
    // Every per-layer metric of BENCHMARK.json but bench.trace_overhead_frac,
    // which needs the untraced wall; run.py checks the names.
    EXPECT_EQ(layers.size(), 27u);
    for (const auto& [metric, value] : layers) {
        EXPECT_TRUE(std::isfinite(value)) << metric;
        EXPECT_GE(value, 0.0) << metric;
    }
    const double unattributed = layers.at("bench.unattributed_frac");
    EXPECT_GE(unattributed, 0.0);
    EXPECT_LT(unattributed, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Workloads, E2eBench, ::testing::ValuesIn(e2e::all_workloads()),
                         [](const ::testing::TestParamInfo<Workload>& info) {
                             std::string n = e2e::workload_name(info.param);
                             for (char& ch : n)
                                 if (ch == '-') ch = '_';
                             return n;
                         });

TEST(SpanRecorder, AttributesChildrenAndExportsChromeTrace) {
    e2e::SpanRecorder rec;
    int root = -1;
    {
        const e2e::SpanRecorder::Scope op(rec, "bench.op");
        root = static_cast<int>(rec.spans().size()) - 1;
        {
            const e2e::SpanRecorder::Scope a(rec, "trace.profile");
            const e2e::SpanRecorder::Scope nested(rec, "trace.read");
        }
        const e2e::SpanRecorder::Scope b(rec, "partition.solve");
    }
    ASSERT_EQ(rec.spans().size(), 4u);
    EXPECT_EQ(rec.spans()[2].parent, 1);
    EXPECT_EQ(rec.spans()[3].parent, root);
    EXPECT_GE(rec.total_seconds("trace.read", root), 0.0);
    EXPECT_EQ(rec.total_seconds("trace.read", 3), 0.0);
    const double u = rec.unattributed_fraction(root);
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);

    const std::string path = fresh_dir("spans") + "/trace.json";
    rec.write_chrome_trace(path);
    const std::vector<char> bytes = file_bytes(path);
    const std::string text(bytes.begin(), bytes.end());
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"partition.solve\""), std::string::npos);
}

TEST(SpanRecorder, RejectsOutOfOrderClose) {
    e2e::SpanRecorder rec;
    const int outer = rec.begin("outer");
    rec.begin("inner");
    EXPECT_ANY_THROW(rec.end(outer));
}

}  // namespace
