// Measurement helpers shared by the benchmark workloads: percentiles, the
// capacity-ladder rule, the independent residual check, the span recorder,
// and the metric/result records printed at the end of a run. Everything
// here is covered by tests/selftest.cpp.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "matrix/batch_csr.hpp"
#include "matrix/batch_dense.hpp"

namespace pb {

using batchlin::index_type;
using clock_type = std::chrono::steady_clock;

inline double seconds_between(clock_type::time_point a,
                              clock_type::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------- stats

/// Percentile `q` (0..100) with linear interpolation between closest ranks
/// (numpy's default). Empty input gives 0.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Host-noise policy (README.md, "Host noise"): a run is cut into units
/// of fixed work, and a timing metric reports the fast end of its
/// per-unit values. Contention on a shared host only ever slows a unit
/// down. The fast end is the lowest percentile of times (highest of rates)
/// with kFastEndSupport units beyond it, but no further out than 2% (98%)
/// and no further in than the median: a percentile with fewer units
/// beyond it is an extreme value that moves from run to run by itself.
inline constexpr std::size_t kFastEndSupport = 10;
double fast_end_share(std::size_t units);
inline double fast_end_rate(const std::vector<double>& per_unit)
{
    return percentile(per_unit, 100.0 - fast_end_share(per_unit.size()));
}
inline double fast_end_time(const std::vector<double>& per_unit)
{
    return percentile(per_unit, fast_end_share(per_unit.size()));
}

/// Hypervisor steal on a shared host: time the host's processors were
/// runnable but not running, summed over all of them, in seconds
/// (/proc/stat; 0 where the kernel reports none).
double host_steal_seconds();
/// Processors the host has online (the ones /proc/stat sums over).
int host_processors();

/// A unit in which the hypervisor took more than this share of the host's
/// processor time is left out of the fast end, as long as at least a
/// quarter of the units remain. Steal comes in episodes that slow every
/// thread of a unit at once (runs with 20-27% steal had their latency
/// grow tenfold), and a unit's steal is measured, not guessed.
inline constexpr double kMaxStealShare = 0.02;

/// The per-unit values of the units with steal share at most
/// kMaxStealShare, or, when fewer than a quarter of the units are that
/// clean, the least-stolen quarter. `steal_share[i]` belongs to
/// `per_unit[i]`.
std::vector<double> least_stolen(const std::vector<double>& per_unit,
                                 const std::vector<double>& steal_share);

/// Set-up time is many short repetitions per run. Their fastest few are
/// rare lucky ones and their median follows the host's contention, so a
/// run reports the 10th percentile, which repeated best between runs.
inline constexpr int kSetupRepetitions = 201;
inline constexpr double kSetupPercentile = 10.0;

/// Samples that lie strictly above the `q` percentile of `n` samples. A
/// tail percentile means something only with about ten or more beyond it;
/// the workloads size their units for that and record the count.
std::size_t samples_beyond(std::size_t n, double q);

// ---------------------------------------------------- capacity ladder

/// Outcome of one ladder rung (one fixed open-loop schedule at one rate).
struct rung_outcome {
    bool latency_ok = false;
    bool backlog_ok = false;
    bool schedule_ok = false;

    bool pass() const { return latency_ok && backlog_ok && schedule_ok; }
};

/// The fixed rate ladder: rung i offers `base * step^i` requests/s.
/// Searching climbs every `coarse_stride`-th rung until a confirmed
/// failure, then walks the fine rungs between the last coarse pass and
/// that failure. A rung fails only when a re-probe fails too, so a single
/// transient never ends the climb.
struct capacity_ladder {
    double base = 1000.0;
    double step = 1.05;
    int rungs = 64;
    int coarse_stride = 4;

    double rate(int rung) const;
};

struct ladder_result {
    /// Highest rung that passed below the first confirmed failure; -1 when
    /// even rung 0 failed.
    int rung = -1;
    double capacity = 0.0;
    /// Every probe made, in order: (rung, passed).
    std::vector<std::pair<int, bool>> probes;
};

/// Runs the search. `probe(rate)` executes one rung; a rung is probed at
/// most twice.
ladder_result search_capacity(
    const capacity_ladder& ladder,
    const std::function<rung_outcome(double rate)>& probe);

// ---------------------------------------------------- output check

/// ||b - A x|| / ||b|| of batch item `item`, recomputed from the CSR arrays
/// with a plain loop (independent of solver::residual). A zero right-hand
/// side gives ||A x|| (the solution must be zero).
double relative_residual(const batchlin::mat::batch_csr<double>& a,
                         const batchlin::mat::batch_dense<double>& b,
                         const batchlin::mat::batch_dense<double>& x,
                         index_type item);

/// Slack on the relative tolerance a `converged` system must meet: the
/// solvers monitor a recurrence (implicit) residual, which may drift from
/// the true residual by a small factor.
inline constexpr double kResidualSlack = 10.0;

/// Tally of the output check over many systems.
struct residual_check {
    std::uint64_t systems = 0;
    std::uint64_t violations = 0;
    /// Worst true-residual / rtol ratio among converged systems.
    double worst_ratio = 0.0;

    /// Checks one system: it must have converged, and its true residual
    /// must be within `rtol * kResidualSlack`. Returns true when it passes.
    bool check(bool converged, double rel_residual, double rtol);
};

// ---------------------------------------------------- tracing

/// One span recorded by the benchmark around a call into a layer (or a
/// child interval the program reports, such as a kernel launch).
struct span {
    const char* name = "";
    double start = 0.0;  ///< seconds since the run's epoch
    double end = 0.0;
    std::int64_t parent = -1;  ///< index into the same recorder, -1 = root
    std::int64_t request = -1;
};

/// Spans kept in memory for the whole run and written once at exit. A
/// recorder belongs to one thread; a disabled recorder ignores every call.
/// High-rate workloads trace one operation in `sample_every`, which keeps
/// the recorder's memory and the trace file bounded.
class span_recorder {
public:
    span_recorder(bool on, clock_type::time_point epoch, int sample_every = 1)
        : on_(on), epoch_(epoch), sample_every_(sample_every)
    {
    }

    bool on() const { return on_; }

    /// Whether the operation numbered `id` gets spans.
    bool sampled(std::int64_t id) const
    {
        return on_ && id % sample_every_ == 0;
    }

    std::int64_t add(const char* name, clock_type::time_point start,
                     clock_type::time_point end, std::int64_t parent,
                     std::int64_t request)
    {
        return add_seconds(name, seconds_between(epoch_, start),
                           seconds_between(epoch_, end), parent, request);
    }

    std::int64_t add_seconds(const char* name, double start, double end,
                             std::int64_t parent, std::int64_t request)
    {
        if (!on_) {
            return -1;
        }
        spans_.push_back({name, start, end, parent, request});
        return static_cast<std::int64_t>(spans_.size()) - 1;
    }

    const std::vector<span>& spans() const { return spans_; }

    /// Total self time (duration minus the union of child intervals) of
    /// the spans named `name`, in seconds.
    double self_seconds(const std::string& name) const;
    std::size_t count(const std::string& name) const;

private:
    bool on_;
    clock_type::time_point epoch_;
    int sample_every_;
    std::vector<span> spans_;
};

/// Writes the first `count` spans of `recorder` as Chrome trace-event JSON
/// (one "X" event per span).
void write_trace(const std::string& path, const span_recorder& recorder,
                 std::size_t count);

// ---------------------------------------------------- result record

struct metric {
    double value = 0.0;
    std::string unit;
};

/// What one run produces: the verdict, the counts, and the metrics of the
/// requested kind (end-to-end or per-layer) in insertion order.
struct run_result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::pair<std::string, metric>> metrics;
    /// Extra facts recorded in the result file but not printed as metrics
    /// (team size, sample counts, ladder probes, ...).
    std::map<std::string, std::string> notes;

    void set(const std::string& name, double value, const std::string& unit);
    void note(const std::string& key, const std::string& value)
    {
        notes[key] = value;
    }
    void note(const std::string& key, double value);
};

/// The single JSON line the benchmark prints last.
std::string result_line(const run_result& r);

/// Quotes `s` as a JSON string.
std::string json_string(const std::string& s);

}  // namespace pb
