#include "report.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

namespace pb {

double percentile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double pos = (q / 100.0) * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    if (frac == 0.0 || values[hi] == values[lo]) {
        return values[lo];  // also keeps +inf samples from turning into NaN
    }
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

double fast_end_share(std::size_t units)
{
    if (units < 2) {
        return 50.0;
    }
    const double share = 100.0 * static_cast<double>(kFastEndSupport) /
                         static_cast<double>(units - 1);
    return std::clamp(share, 2.0, 50.0);
}

std::size_t samples_beyond(std::size_t n, double q)
{
    if (n == 0) {
        return 0;
    }
    // Ranks strictly above the interpolation position (n-1) * q / 100.
    const double pos = (q / 100.0) * static_cast<double>(n - 1);
    const auto at_or_below = static_cast<std::size_t>(std::floor(pos)) + 1;
    return n - std::min(n, at_or_below);
}

double host_steal_seconds()
{
    // First line of /proc/stat: "cpu user nice system idle iowait irq
    // softirq steal ...", summed over all processors, in clock ticks.
    std::ifstream in("/proc/stat");
    std::string cpu;
    double field[8] = {};
    in >> cpu;
    for (double& f : field) {
        in >> f;
    }
    return field[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

int host_processors()
{
    return std::max(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
}

std::vector<double> least_stolen(const std::vector<double>& per_unit,
                                 const std::vector<double>& steal_share)
{
    std::vector<std::size_t> order(per_unit.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return steal_share[a] < steal_share[b];
                     });
    const std::size_t quarter = (order.size() + 3) / 4;
    std::vector<double> out;
    for (std::size_t k = 0; k < order.size(); ++k) {
        if (k >= quarter && steal_share[order[k]] > kMaxStealShare) {
            break;
        }
        out.push_back(per_unit[order[k]]);
    }
    return out;
}

double capacity_ladder::rate(int rung) const
{
    return base * std::pow(step, rung);
}

ladder_result search_capacity(
    const capacity_ladder& ladder,
    const std::function<rung_outcome(double rate)>& probe)
{
    ladder_result out;
    const auto confirmed_pass = [&](int rung) {
        const bool first = probe(ladder.rate(rung)).pass();
        out.probes.emplace_back(rung, first);
        if (first) {
            return true;
        }
        const bool second = probe(ladder.rate(rung)).pass();
        out.probes.emplace_back(rung, second);
        return second;
    };

    // Coarse climb over every coarse_stride-th rung.
    int last_pass = -1;
    int first_fail = ladder.rungs;
    for (int r = 0; r < ladder.rungs; r += ladder.coarse_stride) {
        if (!confirmed_pass(r)) {
            first_fail = r;
            break;
        }
        last_pass = r;
    }
    // Fine walk between the last coarse pass and the coarse failure.
    const int fine_end = std::min(first_fail, ladder.rungs);
    if (last_pass >= 0) {
        for (int r = last_pass + 1; r < fine_end; ++r) {
            if (!confirmed_pass(r)) {
                break;
            }
            last_pass = r;
        }
    }
    out.rung = last_pass;
    out.capacity = last_pass >= 0 ? ladder.rate(last_pass) : 0.0;
    return out;
}

double relative_residual(const batchlin::mat::batch_csr<double>& a,
                         const batchlin::mat::batch_dense<double>& b,
                         const batchlin::mat::batch_dense<double>& x,
                         index_type item)
{
    const std::vector<index_type>& row_ptrs = a.row_ptrs();
    const std::vector<index_type>& col_idxs = a.col_idxs();
    const double* vals = a.item_values(item);
    const double* bi = b.item_values(item);
    const double* xi = x.item_values(item);
    double r2 = 0.0;
    double b2 = 0.0;
    for (index_type row = 0; row < a.rows(); ++row) {
        double ax = 0.0;
        for (index_type k = row_ptrs[static_cast<std::size_t>(row)];
             k < row_ptrs[static_cast<std::size_t>(row) + 1]; ++k) {
            ax += vals[k] * xi[col_idxs[static_cast<std::size_t>(k)]];
        }
        const double r = bi[row] - ax;
        r2 += r * r;
        b2 += bi[row] * bi[row];
    }
    return b2 > 0.0 ? std::sqrt(r2 / b2) : std::sqrt(r2);
}

bool residual_check::check(bool converged, double rel_residual, double rtol)
{
    ++systems;
    const bool finite = std::isfinite(rel_residual);
    if (converged && finite) {
        worst_ratio = std::max(worst_ratio, rel_residual / rtol);
    }
    const bool ok =
        converged && finite && rel_residual <= rtol * kResidualSlack;
    if (!ok) {
        ++violations;
    }
    return ok;
}

namespace {

/// Length of the union of [start, end) intervals.
double union_length(std::vector<std::pair<double, double>> iv)
{
    std::sort(iv.begin(), iv.end());
    double total = 0.0;
    double cur_start = 0.0;
    double cur_end = -1.0;
    bool open = false;
    for (const auto& [s, e] : iv) {
        if (!open || s > cur_end) {
            if (open) {
                total += cur_end - cur_start;
            }
            cur_start = s;
            cur_end = e;
            open = true;
        } else {
            cur_end = std::max(cur_end, e);
        }
    }
    if (open) {
        total += cur_end - cur_start;
    }
    return total;
}

}  // namespace

double span_recorder::self_seconds(const std::string& name) const
{
    std::map<std::int64_t, std::vector<std::pair<double, double>>> children;
    for (const span& s : spans_) {
        if (s.parent >= 0) {
            const span& p = spans_[static_cast<std::size_t>(s.parent)];
            children[s.parent].emplace_back(std::max(s.start, p.start),
                                            std::min(s.end, p.end));
        }
    }
    double total = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const span& s = spans_[i];
        if (name != s.name) {
            continue;
        }
        double covered = 0.0;
        const auto it = children.find(static_cast<std::int64_t>(i));
        if (it != children.end()) {
            covered = union_length(it->second);
        }
        total += (s.end - s.start) - covered;
    }
    return total;
}

std::size_t span_recorder::count(const std::string& name) const
{
    return static_cast<std::size_t>(
        std::count_if(spans_.begin(), spans_.end(),
                      [&](const span& s) { return name == s.name; }));
}

void write_trace(const std::string& path, const span_recorder& recorder,
                 std::size_t count)
{
    std::ofstream out(path);
    out << "{\"traceEvents\":[\n";
    char buf[256];
    const std::vector<span>& spans = recorder.spans();
    count = std::min(count, spans.size());
    for (std::size_t i = 0; i < count; ++i) {
        const span& s = spans[i];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"parent\":%lld,\"request\":%lld}}",
                      i == 0 ? "" : ",\n", s.name, s.start * 1e6,
                      (s.end - s.start) * 1e6,
                      static_cast<long long>(s.parent),
                      static_cast<long long>(s.request));
        out << buf;
    }
    out << "\n]}\n";
}

void run_result::set(const std::string& name, double value,
                     const std::string& unit)
{
    for (auto& [n, m] : metrics) {
        if (n == name) {
            m = {value, unit};
            return;
        }
    }
    metrics.emplace_back(name, metric{value, unit});
}

void run_result::note(const std::string& key, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    notes[key] = buf;
}

std::string json_string(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string result_line(const run_result& r)
{
    std::ostringstream out;
    out << "{\"correct\": " << (r.correct ? "true" : "false")
        << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
        << ", \"metrics\": {";
    bool first = true;
    char buf[64];
    for (const auto& [name, m] : r.metrics) {
        // Non-finite values are not JSON; report them as null so the
        // record stays parseable (and whoever reads it sees the problem).
        if (std::isfinite(m.value)) {
            std::snprintf(buf, sizeof(buf), "%.17g", m.value);
        } else {
            std::snprintf(buf, sizeof(buf), "null");
        }
        out << (first ? "" : ", ") << json_string(name)
            << ": {\"value\": " << buf << ", \"unit\": " << json_string(m.unit)
            << "}";
        first = false;
    }
    out << "}}";
    return out.str();
}

}  // namespace pb
