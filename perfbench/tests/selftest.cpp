// Self-tests of the benchmark's own measurement code: the percentile
// helper and its sample-support rule, the fast-end statistics and their
// steal filter, the capacity-ladder rule, the independent residual check,
// and span self times. The checks stay on in every build type; the binary
// exits non-zero if any of them fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <vector>

#include "report.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line)
{
    if (!ok) {
        std::fprintf(stderr, "selftest.cpp:%d: FAILED: %s\n", line, what);
        ++failures;
    }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b, double tol = 1e-12)
{
    return std::fabs(a - b) <= tol * std::max(1.0, std::fabs(b));
}

void test_percentile()
{
    using pb::percentile;
    // numpy.percentile(range(1, 11), q), linear interpolation.
    std::vector<double> v{10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
    EXPECT(near(percentile(v, 0.0), 1.0));
    EXPECT(near(percentile(v, 50.0), 5.5));
    EXPECT(near(percentile(v, 90.0), 9.1));
    EXPECT(near(percentile(v, 100.0), 10.0));
    EXPECT(near(pb::median({3.0, 1.0, 2.0}), 2.0));
    EXPECT(percentile({}, 50.0) == 0.0);
    // A tail of failed (infinite) samples stays infinite, never NaN.
    std::vector<double> inf_tail(100, 1.0);
    inf_tail[98] = inf_tail[99] = std::numeric_limits<double>::infinity();
    EXPECT(std::isinf(percentile(inf_tail, 99.5)));
    EXPECT(near(percentile(inf_tail, 50.0), 1.0));
}

void test_percentile_support()
{
    // The reported p99 needs at least ten samples beyond it: 1000 samples
    // give exactly ten, 100 samples give one.
    EXPECT(pb::samples_beyond(1000, 99.0) == 10);
    EXPECT(pb::samples_beyond(100, 99.0) == 1);
    EXPECT(pb::samples_beyond(100, 50.0) == 50);
    EXPECT(pb::samples_beyond(0, 99.0) == 0);
    // The smallest unit a workload takes a p99 over: a serve segment of
    // 2000 arrivals.
    EXPECT(pb::samples_beyond(2000, 99.0) >= 10);
    // Brute-force cross-check of samples_beyond against a sorted sample.
    for (std::size_t n : {1u, 7u, 99u, 1000u, 1234u}) {
        std::vector<double> v;
        for (std::size_t i = 0; i < n; ++i) {
            v.push_back(static_cast<double>(i));
        }
        const double p = pb::percentile(v, 99.0);
        std::size_t beyond = 0;
        for (const double x : v) {
            beyond += x > p ? 1 : 0;
        }
        EXPECT(beyond == pb::samples_beyond(n, 99.0));
    }
}

void test_fast_end()
{
    // A contended stretch only slows units down: half the units run at
    // half speed, and the fast end still reads the uncontended rate.
    std::vector<double> rates;
    std::vector<double> times;
    for (int i = 0; i < 100; ++i) {
        const double r = i % 2 == 0 ? 100.0 + 0.01 * i : 50.0;
        rates.push_back(r);
        times.push_back(1.0 / r);
    }
    EXPECT(pb::fast_end_rate(rates) > 100.0);
    EXPECT(pb::fast_end_time(times) < 1.0 / 100.0);
    EXPECT(pb::median(rates) < 100.0);

    // Ten units lie beyond the fast end: 41 units 0..40 put it at 10.
    std::vector<double> units;
    for (int i = 0; i <= 40; ++i) {
        units.push_back(i);
    }
    EXPECT(near(pb::fast_end_time(units), 10.0));
    EXPECT(near(pb::fast_end_rate(units), 30.0));
    // Many units: no further out than 2%; few: the median.
    EXPECT(near(pb::fast_end_share(1001), 2.0));
    EXPECT(near(pb::fast_end_share(11), 50.0));
    EXPECT(near(pb::fast_end_share(1), 50.0));
}

void test_least_stolen()
{
    // Units with steal above the limit drop out while a quarter remains.
    const std::vector<double> values = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0};
    const std::vector<double> some = {0.0, 0.3, 0.0, 0.1, 0.01, 0.0, 0.2, 0.0};
    const std::vector<double> kept = pb::least_stolen(values, some);
    EXPECT(kept.size() == 5);
    for (const double v : kept) {
        EXPECT(v != 2.0 && v != 4.0 && v != 7.0);
    }
    // Everything stolen: the least-stolen quarter (rounded up) remains.
    const std::vector<double> all = {0.5, 0.1, 0.4, 0.3, 0.2, 0.6, 0.7, 0.9};
    const std::vector<double> least = pb::least_stolen(values, all);
    EXPECT(least.size() == 2);
    EXPECT(least[0] == 2.0 && least[1] == 5.0);
    // Nothing stolen: every unit remains.
    EXPECT(pb::least_stolen(values, std::vector<double>(8, 0.0)).size() == 8);
    EXPECT(pb::least_stolen({}, {}).empty());
}

/// A probe whose outcome is scripted per rung: rung -> list of outcomes
/// for successive probes; rungs not listed pass below `threshold`.
struct scripted_probe {
    const pb::capacity_ladder& ladder;
    int threshold;
    std::map<int, std::vector<bool>> script;
    std::map<int, int> calls;

    pb::rung_outcome operator()(double rate)
    {
        const int rung = static_cast<int>(
            std::lround(std::log(rate / ladder.base) / std::log(ladder.step)));
        const int k = calls[rung]++;
        bool pass = rung < threshold;
        const auto it = script.find(rung);
        if (it != script.end() && k < static_cast<int>(it->second.size())) {
            pass = it->second[static_cast<std::size_t>(k)];
        }
        pb::rung_outcome o;
        o.latency_ok = pass;
        o.backlog_ok = true;
        o.schedule_ok = true;
        return o;
    }
};

void test_ladder()
{
    pb::capacity_ladder ladder;
    ladder.base = 1000.0;
    ladder.step = 1.05;
    ladder.rungs = 100;
    ladder.coarse_stride = 8;

    // Clean threshold: capacity is the last rung below it, found by the
    // coarse climb plus the fine walk.
    {
        scripted_probe p{ladder, 21, {}, {}};
        const pb::ladder_result r = pb::search_capacity(
            ladder, [&](double rate) { return p(rate); });
        EXPECT(r.rung == 20);
        EXPECT(near(r.capacity, 1000.0 * std::pow(1.05, 20)));
        EXPECT(p.calls[24] == 2);  // the coarse failure was confirmed
    }
    // One transient failure is not a failure: the re-probe passes and the
    // climb goes on.
    {
        scripted_probe p{ladder, 21, {{8, {false, true}}}, {}};
        const pb::ladder_result r = pb::search_capacity(
            ladder, [&](double rate) { return p(rate); });
        EXPECT(r.rung == 20);
        EXPECT(p.calls[8] == 2);
    }
    // A confirmed failure ends the climb even if higher rungs would pass,
    // on the coarse climb and on the fine walk alike.
    {
        scripted_probe p{ladder, 40, {{24, {false, false}}}, {}};
        const pb::ladder_result r = pb::search_capacity(
            ladder, [&](double rate) { return p(rate); });
        EXPECT(r.rung == 23);
        EXPECT(p.calls.count(32) == 0);
    }
    {
        scripted_probe p{ladder, 40, {{35, {false, false}}}, {}};
        const pb::ladder_result r = pb::search_capacity(
            ladder, [&](double rate) { return p(rate); });
        EXPECT(r.rung == 34);
    }
    // Nothing passes: no capacity.
    {
        scripted_probe p{ladder, 0, {}, {}};
        const pb::ladder_result r = pb::search_capacity(
            ladder, [&](double rate) { return p(rate); });
        EXPECT(r.rung == -1);
        EXPECT(r.capacity == 0.0);
        EXPECT(r.probes.size() == 2);
    }
    // Everything passes: the top rung.
    {
        scripted_probe p{ladder, 1000, {}, {}};
        const pb::ladder_result r = pb::search_capacity(
            ladder, [&](double rate) { return p(rate); });
        EXPECT(r.rung == ladder.rungs - 1);
    }
    // Any rung_outcome criterion failing fails the rung.
    pb::rung_outcome o{true, true, true};
    EXPECT(o.pass());
    o.backlog_ok = false;
    EXPECT(!o.pass());
}

void test_residual_check()
{
    using namespace batchlin;
    // 3x3 tridiagonal [2 -1 0; -1 2 -1; 0 -1 2], x* = (1, 1, 1), b = (1, 0, 1).
    mat::batch_csr<double> a(1, 3, 3, {0, 2, 5, 7}, {0, 1, 0, 1, 2, 1, 2});
    const double vals[] = {2, -1, -1, 2, -1, -1, 2};
    std::copy(std::begin(vals), std::end(vals), a.item_values(0));
    mat::batch_dense<double> b(1, 3, 1);
    mat::batch_dense<double> x(1, 3, 1);
    b.at(0, 0, 0) = 1.0;
    b.at(0, 2, 0) = 1.0;
    for (int i = 0; i < 3; ++i) {
        x.at(0, i, 0) = 1.0;
    }
    EXPECT(pb::relative_residual(a, b, x, 0) == 0.0);
    x.at(0, 1, 0) = 1.0 + 1e-3;
    // r = (1e-3, -2e-3, 1e-3), ||r|| / ||b|| = sqrt(6e-6) / sqrt(2).
    EXPECT(near(pb::relative_residual(a, b, x, 0), std::sqrt(3e-6), 1e-9));

    pb::residual_check chk;
    EXPECT(chk.check(true, 5e-9, 1e-8));
    EXPECT(chk.check(true, 9.9e-8, 1e-8));   // within the 10x slack
    EXPECT(!chk.check(true, 2e-7, 1e-8));    // converged but wrong
    EXPECT(!chk.check(false, 1e-12, 1e-8));  // not converged
    EXPECT(!chk.check(true, std::nan(""), 1e-8));
    EXPECT(chk.systems == 5);
    EXPECT(chk.violations == 3);
    EXPECT(near(chk.worst_ratio, 20.0));
}

void test_self_time()
{
    const auto epoch = pb::clock_type::now();
    pb::span_recorder r(true, epoch);
    const auto root = r.add_seconds("call", 0.0, 10.0, -1, 1);
    r.add_seconds("kernel", 2.0, 5.0, root, 1);
    r.add_seconds("kernel", 4.0, 6.0, root, 1);  // overlaps the first
    r.add_seconds("kernel", 9.0, 12.0, root, 1); // clipped to the parent
    EXPECT(near(r.self_seconds("call"), 10.0 - 4.0 - 1.0));
    EXPECT(near(r.self_seconds("kernel"), 3.0 + 2.0 + 3.0));
    EXPECT(r.count("kernel") == 3);
    pb::span_recorder off(false, epoch);
    EXPECT(off.add_seconds("call", 0.0, 1.0, -1, 1) == -1);
    EXPECT(off.spans().empty());
    EXPECT(!off.sampled(0));
    pb::span_recorder one_in_16(true, epoch, 16);
    EXPECT(one_in_16.sampled(32));
    EXPECT(!one_in_16.sampled(33));
}

void test_result_line()
{
    pb::run_result r;
    r.attempted = 3;
    r.failed = 1;
    r.correct = false;
    r.set("a", 1.5, "ms");
    r.set("b", std::numeric_limits<double>::infinity(), "s");
    r.set("a", 2.5, "ms");
    EXPECT(pb::result_line(r) ==
           "{\"correct\": false, \"attempted\": 3, \"failed\": 1, "
           "\"metrics\": {\"a\": {\"value\": 2.5, \"unit\": \"ms\"}, "
           "\"b\": {\"value\": null, \"unit\": \"s\"}}}");
}

}  // namespace

int main()
{
    test_percentile();
    test_percentile_support();
    test_fast_end();
    test_least_stolen();
    test_ladder();
    test_residual_check();
    test_self_time();
    test_result_line();
    if (failures == 0) {
        std::printf("batchbench selftest: all passed\n");
    }
    return failures == 0 ? 0 : 1;
}
