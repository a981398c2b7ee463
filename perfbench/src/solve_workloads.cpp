// pele_batch: repeated solver::solve calls on one xpu::queue the benchmark
// owns. The unit of work (a "pass") is a fixed list of calls; the phase
// repeats whole passes until its time is up, so the call mix never depends
// on speed.
#include <omp.h>

#include <algorithm>
#include <cstdio>

#include "perfmodel/cost_model.hpp"
#include "perfmodel/device_spec.hpp"
#include "solver/dispatch.hpp"
#include "solver/handle.hpp"
#include "workload/chemistry.hpp"
#include "workloads.hpp"

namespace pb {

using namespace batchlin;

namespace {

struct solve_case {
    solver::batch_matrix<double> a;
    mat::batch_dense<double> b;
    mat::batch_dense<double> x;
    solver::solve_options opts;
    index_type items = 0;
};

solver::solve_options options(solver::solver_type s, double rtol,
                              index_type max_iters)
{
    solver::solve_options o;
    o.solver = s;
    o.preconditioner = precond::type::jacobi;
    o.criterion = stop::relative(rtol, max_iters);
    return o;
}

/// Table 4 mechanisms, each replicated to `batch` systems (§4.1: BiCGSTAB,
/// scalar Jacobi, BatchCsr, rtol 1e-8). The seed picks the unique systems
/// and the right-hand sides.
std::vector<solve_case> pele_cases(std::uint64_t seed, bool smoke)
{
    const index_type batch = smoke ? 64 : 2048;
    std::vector<solve_case> cases;
    std::uint64_t salt = 0;
    for (const work::mechanism& mech : work::pele_mechanisms()) {
        ++salt;
        solve_case c;
        c.a = work::generate_mechanism_batch<double>(mech, batch,
                                                     seed * 1000 + salt);
        c.b = work::mechanism_rhs<double>(batch, mech.rows,
                                          seed * 1000 + 500 + salt);
        c.x = mat::batch_dense<double>(batch, mech.rows, 1);
        c.opts = options(solver::solver_type::bicgstab, 1e-8, 200);
        c.items = batch;
        cases.push_back(std::move(c));
    }
    return cases;
}

void reset_guess(solve_case& c)
{
    std::fill(c.x.values().begin(), c.x.values().end(), 0.0);
}

/// Checks every system of a finished call against the independent
/// residual recompute; the call fails if any of its systems does.
bool check_outputs(const solve_case& c, const solver::solve_result& r,
                   residual_check& chk)
{
    const auto& a = std::get<mat::batch_csr<double>>(c.a);
    bool ok = true;
    for (index_type i = 0; i < c.items; ++i) {
        ok = chk.check(r.log.converged(i), relative_residual(a, c.b, c.x, i),
                       c.opts.criterion.tolerance) &&
             ok;
    }
    return ok;
}

/// Cost of the output check per stored nonzero on the host the benchmark
/// was tuned on (4-vCPU Intel Xeon VM): about its median there.
constexpr double kCheckNsPerNonzero = 1.5;

/// The counters and model figures of one pass; identical across passes
/// and runs with the same seed.
struct pass_counts {
    xpu::counters stats;
    double modeled_seconds = 0.0;
    double hbm_seconds = 0.0;
    double occupancy_weighted = 0.0;
    double spilled_vectors = 0.0;
    double converged = 0.0;
    std::uint64_t systems = 0;
    std::uint64_t calls = 0;
};

/// Against host noise every time of a pass is scaled by how fast the host
/// ran the pass's output check, and the run reports the median of the
/// scaled passes the hypervisor left alone (see README.md, "Host noise").
phase run_solve_workload(const run_config& cfg,
                         std::vector<solve_case> cases)
{
    phase out;
    const perf::device_spec device = perf::pvc_1s();
    const xpu::exec_policy policy = device.make_policy();
    omp_set_num_threads(cfg.team);

    std::uint64_t systems_per_pass = 0;
    double nonzeros_per_pass = 0.0;
    for (const solve_case& c : cases) {
        systems_per_pass += static_cast<std::uint64_t>(c.items);
        nonzeros_per_pass +=
            static_cast<double>(std::get<mat::batch_csr<double>>(c.a).nnz()) *
            static_cast<double>(c.items);
    }
    const double check_nominal_s =
        kCheckNsPerNonzero * 1e-9 * nonzeros_per_pass;

    // Set-up: a fresh queue to its first completed solve, repeated at even
    // intervals over the run (at the start of a pass, scaled with it).
    std::vector<double> setups;
    std::vector<double> setups_wall;
    const int setup_reps = cfg.smoke ? 2 : kSetupRepetitions;
    const auto setup_once = [&] {
        solve_case& c = cases.front();
        reset_guess(c);
        const auto t0 = clock_type::now();
        xpu::queue fresh(policy);
        solver::solve(fresh, c.a, c.b, c.x, c.opts);
        return seconds_between(t0, clock_type::now());
    };

    const auto epoch = clock_type::now();
    span_recorder spans(cfg.traced, epoch);
    xpu::queue q(policy);
    if (cfg.traced) {
        q.enable_profiling();
    }

    residual_check chk;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<double> pass_rate;
    std::vector<double> pass_rate_wall;
    std::vector<double> pass_p50_wall;
    std::vector<double> host_speed;
    std::vector<double> pass_calls_per_s;
    std::vector<double> pass_p50;
    std::vector<double> pass_p90;
    std::vector<double> pass_steal;
    std::vector<double> call_ms;
    std::vector<double> host_overhead_us;
    double kernel_wall_total = 0.0;
    std::uint64_t launches_total = 0;
    pass_counts counts;

    const int min_passes = 3;
    int passes = 0;
    while (passes < min_passes ||
           static_cast<int>(setups.size()) < setup_reps ||
           seconds_between(epoch, clock_type::now()) < cfg.seconds) {
        double setup = -1.0;
        if (static_cast<int>(setups.size()) < setup_reps &&
            seconds_between(epoch, clock_type::now()) >=
                cfg.seconds * static_cast<double>(setups.size()) /
                    setup_reps) {
            setup = setup_once();
        }
        const bool first_pass = passes == 0;
        double pass_wall = 0.0;
        double check_wall = 0.0;
        double stolen = 0.0;
        std::vector<double> pass_ms;
        for (solve_case& c : cases) {
            reset_guess(c);
            const double steal0 = host_steal_seconds();
            const auto t0 = clock_type::now();
            const solver::solve_result r =
                solver::solve(q, c.a, c.b, c.x, c.opts);
            const auto t1 = clock_type::now();
            stolen += host_steal_seconds() - steal0;
            const double wall = seconds_between(t0, t1);
            pass_wall += wall;
            pass_ms.push_back(wall * 1e3);
            ++attempted;

            if (cfg.traced) {
                const auto id = static_cast<std::int64_t>(attempted);
                const std::int64_t call =
                    spans.add("solver::solve", t0, t1, -1, id);
                const std::vector<xpu::launch_record> hist =
                    q.launch_history();
                q.clear_launch_history();
                double kernel = 0.0;
                for (const xpu::launch_record& rec : hist) {
                    kernel += rec.wall_seconds;
                }
                // Launch records carry durations only; the kernel runs at
                // the end of the call, after dispatch and workspace binding.
                double cursor = seconds_between(epoch, t1) - kernel;
                for (const xpu::launch_record& rec : hist) {
                    spans.add_seconds("xpu::run_batch", cursor,
                                      cursor + rec.wall_seconds, call, id);
                    cursor += rec.wall_seconds;
                }
                kernel_wall_total += kernel;
                launches_total += hist.size();
                host_overhead_us.push_back((wall - kernel) * 1e6);
                call_ms.push_back(wall * 1e3);
            }

            const auto c0 = clock_type::now();
            failed += check_outputs(c, r, chk) ? 0 : 1;
            check_wall += seconds_between(c0, clock_type::now());

            if (first_pass) {
                const perf::time_breakdown t = perf::estimate_time(
                    device, make_profile<double>(r, c.a, c.items));
                counts.stats += r.stats;
                counts.modeled_seconds += t.total_seconds;
                counts.hbm_seconds += t.hbm_seconds;
                counts.occupancy_weighted +=
                    t.occupancy * static_cast<double>(c.items);
                for (const auto& e : r.plan.entries) {
                    counts.spilled_vectors += e.in_slm ? 0.0 : 1.0;
                }
                counts.converged += r.log.num_converged();
                counts.systems += static_cast<std::uint64_t>(c.items);
                ++counts.calls;
            }
        }
        // The pass at the reference host's speed: `speed` < 1 when the
        // check ran slower than nominal.
        const double speed = check_nominal_s / check_wall;
        host_speed.push_back(speed);
        if (setup >= 0.0) {
            setups_wall.push_back(setup);
            setups.push_back(setup * speed);
        }
        pass_rate_wall.push_back(static_cast<double>(systems_per_pass) /
                                 pass_wall);
        pass_rate.push_back(pass_rate_wall.back() / speed);
        pass_calls_per_s.push_back(static_cast<double>(pass_ms.size()) /
                                   (pass_wall * speed));
        pass_p50_wall.push_back(percentile(pass_ms, 50.0));
        pass_p50.push_back(pass_p50_wall.back() * speed);
        pass_p90.push_back(percentile(pass_ms, 90.0) * speed);
        pass_steal.push_back(stolen / (host_processors() * pass_wall));
        ++passes;
    }
    const double elapsed = seconds_between(epoch, clock_type::now());

    const double systems = static_cast<double>(counts.systems);
    const double calls = static_cast<double>(counts.calls);
    run_result& e = out.e2e;
    e.attempted = attempted;
    e.failed = failed;
    e.correct = failed == 0;
    e.set("systems_per_s", median(least_stolen(pass_rate, pass_steal)),
          "1/s");
    e.set("modeled_us_per_system", counts.modeled_seconds / systems * 1e6,
          "us");
    // A pass holds one call per mechanism, so its p90 sits between its two
    // slowest calls.
    e.set("latency_ms_p50", median(least_stolen(pass_p50, pass_steal)),
          "ms");
    e.set("latency_ms_p90", median(least_stolen(pass_p90, pass_steal)),
          "ms");
    // Every workload reports every end-to-end metric. Here capacity is
    // derived: calls per second of call wall time, a fixed multiple of
    // systems_per_s.
    e.set("capacity_rps",
          median(least_stolen(pass_calls_per_s, pass_steal)), "1/s");
    e.set("ok_share",
          static_cast<double>(attempted - std::min(attempted, failed)) /
              static_cast<double>(attempted),
          "share");
    e.set("setup_s", percentile(setups, kSetupPercentile), "s");
    e.set("peak_rss_mb", peak_rss_mb(), "MB");
    e.note("passes", static_cast<double>(passes));
    e.note("passes_within_steal_limit",
           static_cast<double>(std::count_if(
               pass_steal.begin(), pass_steal.end(),
               [](double s) { return s <= kMaxStealShare; })));
    // The same figures in plain wall time (median and fast end of the
    // passes), and how fast the host ran.
    e.note("systems_per_s_wall",
           median(least_stolen(pass_rate_wall, pass_steal)));
    e.note("systems_per_s_wall_fast_end",
           fast_end_rate(least_stolen(pass_rate_wall, pass_steal)));
    e.note("latency_ms_p50_wall",
           median(least_stolen(pass_p50_wall, pass_steal)));
    e.note("setup_s_wall", percentile(setups_wall, kSetupPercentile));
    e.note("host_speed_median", median(host_speed));
    e.note("host_speed_p10", percentile(host_speed, 10.0));
    e.note("host_speed_p90", percentile(host_speed, 90.0));
    e.note("systems_checked", static_cast<double>(chk.systems));
    e.note("residual_worst_ratio_to_rtol", chk.worst_ratio);
    e.note("phase_seconds", elapsed);

    if (!cfg.traced) {
        return out;
    }
    run_result& l = out.layers;
    preset_layer_metrics(l);
    l.attempted = attempted;
    l.failed = failed;
    l.correct = e.correct;
    const double traced_calls = static_cast<double>(attempted);
    const double offchip = counts.stats.constant_read_bytes +
                           counts.stats.global_read_bytes +
                           counts.stats.global_write_bytes;
    l.set("xpu.kernel_ms", kernel_wall_total / traced_calls * 1e3, "ms");
    l.set("xpu.flops_per_system", counts.stats.flops / systems, "flop");
    l.set("xpu.offchip_bytes_per_system", offchip / systems, "B");
    l.set("xpu.slm_bytes_per_system", counts.stats.slm_bytes / systems,
          "B");
    l.set("xpu.barriers_per_system",
          static_cast<double>(counts.stats.group_barriers) / systems,
          "count");
    l.set("xpu.flops_per_offchip_byte", counts.stats.flops / offchip,
          "flop/B");
    l.set("xpu.launches_per_call",
          static_cast<double>(launches_total) / traced_calls, "count");
    l.set("solver.call_us", percentile(call_ms, 50.0) * 1e3, "us");
    l.set("solver.host_overhead_us", median(host_overhead_us), "us");
    l.set("solver.iterations_per_system",
          counts.stats.total_iterations / systems, "count");
    l.set("solver.converged_share", counts.converged / systems, "share");
    l.set("solver.spilled_vectors", counts.spilled_vectors / calls, "count");
    l.set("perfmodel.hbm_share", counts.hbm_seconds / counts.modeled_seconds,
          "share");
    l.set("perfmodel.occupancy", counts.occupancy_weighted / systems,
          "share");
    l.set("self.solver_ms",
          spans.self_seconds("solver::solve") / traced_calls * 1e3, "ms");
    l.set("self.xpu_ms",
          spans.self_seconds("xpu::run_batch") / traced_calls * 1e3, "ms");
    write_trace(cfg.out_dir + "/trace-" + cfg.workload + ".json", spans,
                spans.spans().size());
    return out;
}

}  // namespace

phase run_pele_batch(const run_config& cfg)
{
    return run_solve_workload(cfg, pele_cases(cfg.seed, cfg.smoke));
}

}  // namespace pb
