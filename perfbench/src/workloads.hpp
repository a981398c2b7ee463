// The three benchmark workloads. Each one generates its inputs from the
// seed, runs a fixed unit of work repeatedly for the given time, checks
// every output, and fills one phase record: the end-to-end metrics and,
// when traced, the per-layer metrics derived from its spans.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace pb {

struct run_config {
    std::string workload;
    std::uint64_t seed = 1;
    /// Measurement time of this phase (setup and input generation excluded).
    double seconds = 10.0;
    bool traced = false;
    /// Tiny inputs and short schedules, for the smoke tests.
    bool smoke = false;
    /// Where the trace file goes (traced phases only).
    std::string out_dir;
    /// OpenMP team size the workload's solves run on.
    int team = 1;
};

/// One measurement phase: end-to-end metrics (always) and per-layer
/// metrics (traced phases), with the verdict and operation counts.
struct phase {
    run_result e2e;
    run_result layers;
};

phase run_pele_batch(const run_config& cfg);
phase run_serve_coalesce(const run_config& cfg);
phase run_serve_sharded(const run_config& cfg);

/// Peak resident set size since the last reset_peak_rss() (or process
/// start), in MB. Each phase resets it, so that a traced phase does not
/// report the memory of the untraced phase before it.
double peak_rss_mb();
void reset_peak_rss();

/// Sets every per-layer metric the benchmark defines, so that each
/// workload reports the same names; layers a workload does not exercise
/// read 0. Call before filling in the workload's own values.
void preset_layer_metrics(run_result& layers);

}  // namespace pb
