// batchbench — the repository benchmark.
//
//   batchbench --workload NAME --seed N --seconds S --trace 0|1
//              [--out-dir DIR] [--commit ID] [--env-cleared LIST] [--smoke]
//
// --trace 0 measures one untraced phase and prints every end-to-end metric.
// --trace 1 measures an untraced phase and then a traced phase (half the
// time each), prints every per-layer metric of the traced phase, and
// reports for each end-to-end metric how much tracing moved it. The last
// line of stdout is the JSON result; the full record (host fingerprint,
// notes) is written to DIR/result-<workload>-seed<N>-trace<T>.json.
#include <omp.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "workloads.hpp"

extern char** environ;

namespace pb {

void reset_peak_rss()
{
    // "5" resets the process's VmHWM to its current RSS (proc(5)).
    std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;  // kB
        }
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

struct metric_def {
    const char* name;
    const char* unit;
};

constexpr metric_def kEndToEnd[] = {
    {"systems_per_s", "1/s"},   {"modeled_us_per_system", "us"},
    {"latency_ms_p50", "ms"},   {"latency_ms_p90", "ms"},
    {"capacity_rps", "1/s"},    {"ok_share", "share"},
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
};

constexpr metric_def kLayers[] = {
    {"xpu.kernel_ms", "ms"},
    {"xpu.flops_per_system", "flop"},
    {"xpu.offchip_bytes_per_system", "B"},
    {"xpu.slm_bytes_per_system", "B"},
    {"xpu.barriers_per_system", "count"},
    {"xpu.flops_per_offchip_byte", "flop/B"},
    {"xpu.launches_per_call", "count"},
    {"solver.call_us", "us"},
    {"solver.host_overhead_us", "us"},
    {"solver.iterations_per_system", "count"},
    {"solver.converged_share", "share"},
    {"solver.spilled_vectors", "count"},
    {"perfmodel.hbm_share", "share"},
    {"perfmodel.occupancy", "share"},
    {"serve.submit_us_p50", "us"},
    {"serve.submit_us_p99", "us"},
    {"serve.queue_ms_p50", "ms"},
    {"serve.queue_ms_p99", "ms"},
    {"serve.solve_ms_p50", "ms"},
    {"serve.reply_gap_ms_p50", "ms"},
    {"serve.mean_batch_systems", "count"},
    {"serve.launches_per_request", "count"},
    {"serve.graph_rebind_share", "share"},
    {"serve.rejected", "count"},
    {"serve.shed", "count"},
    {"serve.expired", "count"},
    {"serve.failed", "count"},
    {"serve.launch_retries", "count"},
    {"shard.routed_imbalance", "ratio"},
    {"shard.steals_per_1k_requests", "count"},
    {"shard.queue_depth_max", "count"},
    {"shard.modeled_busy_s_max", "s"},
    {"shard.modeled_systems_per_s", "1/s"},
    {"gen.late_ms_p99", "ms"},
    {"gen.offered_rps", "1/s"},
    {"self.gen_ms", "ms"},
    {"self.serve_ms", "ms"},
    {"self.solver_ms", "ms"},
    {"self.xpu_ms", "ms"},
};

[[noreturn]] void usage_error(const std::string& msg)
{
    std::fprintf(stderr, "batchbench: %s\n", msg.c_str());
    std::exit(2);
}

std::string cpu_model()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                return line.substr(colon + 2);
            }
        }
    }
    return "unknown";
}

/// The BATCHLIN_* environment overrides change the program under test
/// (launch mode, shard layout, storage precision, stage probe). The
/// benchmark refuses to run with any of them set; perfbench/run.py clears
/// them before starting batchbench and records what it cleared.
std::string batchlin_env_overrides()
{
    std::string found;
    for (char** e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "BATCHLIN_", 9) == 0) {
            found += found.empty() ? "" : " ";
            found += *e;
        }
    }
    return found;
}

/// OpenMP team a std::thread gets: serve workers run their launches on
/// it, and it comes from OMP_NUM_THREADS (omp_set_num_threads in main
/// only affects the main thread).
int thread_default_team()
{
    int team = 0;
    std::thread t([&] { team = omp_get_max_threads(); });
    t.join();
    return team;
}

}  // namespace

void preset_layer_metrics(run_result& layers)
{
    for (const metric_def& m : kLayers) {
        layers.set(m.name, 0.0, m.unit);
    }
}

}  // namespace pb

int main(int argc, char** argv)
{
    using namespace pb;
    run_config cfg;
    int trace = -1;
    std::string commit = "unknown";
    std::string env_cleared;
    cfg.out_dir = ".bench_build/perfbench";
    bool have_seed = false;
    bool have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage_error("missing value for " + arg);
            }
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                cfg.workload = value();
            } else if (arg == "--seed") {
                cfg.seed = std::stoull(value());
                have_seed = true;
            } else if (arg == "--seconds") {
                cfg.seconds = std::stod(value());
                have_seconds = true;
            } else if (arg == "--trace") {
                trace = std::stoi(value());
            } else if (arg == "--out-dir") {
                cfg.out_dir = value();
            } else if (arg == "--commit") {
                commit = value();
            } else if (arg == "--env-cleared") {
                env_cleared = value();
            } else if (arg == "--smoke") {
                cfg.smoke = true;
            } else {
                usage_error("unknown argument " + arg);
            }
        } catch (const std::logic_error&) {
            usage_error("bad value for " + arg);
        }
    }
    if (cfg.workload.empty() || !have_seed || !have_seconds ||
        (trace != 0 && trace != 1) || cfg.seconds <= 0.0) {
        usage_error("usage: batchbench --workload NAME --seed N "
                    "--seconds S --trace 0|1");
    }
    const std::string overrides = batchlin_env_overrides();
    if (!overrides.empty()) {
        usage_error("refusing to run with BATCHLIN_* overrides set (they "
                    "change the program under test): " +
                    overrides);
    }

    phase (*runner)(const run_config&) = nullptr;
    const int nproc = omp_get_num_procs();
    if (cfg.workload == "pele_batch") {
        runner = run_pele_batch;
        cfg.team = nproc;
    } else if (cfg.workload == "serve_coalesce") {
        runner = run_serve_coalesce;
        cfg.team = 1;
    } else if (cfg.workload == "serve_sharded") {
        runner = run_serve_sharded;
        cfg.team = 1;
    } else {
        usage_error("unknown workload " + cfg.workload);
    }
    // Serve workers inherit their team from OMP_NUM_THREADS; with more
    // than one thread each, the workload would oversubscribe the host.
    const int worker_team = thread_default_team();
    if (runner == run_serve_coalesce || runner == run_serve_sharded) {
        if (worker_team != cfg.team) {
            usage_error("serve workloads need OMP_NUM_THREADS=1 (service "
                        "workers would run " +
                        std::to_string(worker_team) + "-thread teams)");
        }
    }
    std::filesystem::create_directories(cfg.out_dir);

    // One phase, with its own peak-RSS window and a record of how much of
    // the host the hypervisor took meanwhile (a run measured while other
    // tenants were busy shows here, if the hypervisor reports it).
    const auto measure = [&](const run_config& c) {
        reset_peak_rss();
        const double steal0 = host_steal_seconds();
        const auto t0 = clock_type::now();
        phase p = runner(c);
        p.e2e.note("host_steal_share",
                   (host_steal_seconds() - steal0) /
                       (host_processors() *
                        seconds_between(t0, clock_type::now())));
        return p;
    };
    phase measured;
    run_result printed;
    try {
        if (trace == 0) {
            measured = measure(cfg);
            printed = measured.e2e;
        } else {
            run_config half = cfg;
            half.seconds = cfg.seconds / 2.0;
            const phase plain = measure(half);
            half.traced = true;
            measured = measure(half);
            printed = measured.layers;
            for (const metric_def& m : kEndToEnd) {
                double base = 0.0;
                double traced = 0.0;
                for (const auto& [n, v] : plain.e2e.metrics) {
                    base = n == m.name ? v.value : base;
                }
                for (const auto& [n, v] : measured.e2e.metrics) {
                    traced = n == m.name ? v.value : traced;
                }
                printed.set(std::string("trace_overhead.") + m.name,
                            base != 0.0 ? (traced - base) / base : 0.0,
                            "share");
            }
            printed.attempted += plain.e2e.attempted;
            printed.failed += plain.e2e.failed;
            printed.correct = printed.correct && plain.e2e.correct;
        }
    } catch (const std::exception& ex) {
        std::fprintf(stderr, "batchbench: %s failed: %s\n",
                     cfg.workload.c_str(), ex.what());
        return 1;
    }

    // Host fingerprint and run facts, beside the metrics in the record.
    printed.note("workload", cfg.workload);
    printed.note("seed", std::to_string(cfg.seed));
    printed.note("seconds", cfg.seconds);
    printed.note("trace", std::to_string(trace));
    printed.note("cpu_model", cpu_model());
    printed.note("nproc", static_cast<double>(nproc));
    printed.note("compiler", PB_COMPILER);
    printed.note("cxx_flags", PB_CXX_FLAGS);
    printed.note("build_type", PB_BUILD_TYPE);
    printed.note("omp_team", static_cast<double>(cfg.team));
    printed.note("commit", commit);
    printed.note("env_cleared", env_cleared.empty() ? "none" : env_cleared);
    if (trace == 1) {
        for (const auto& [k, v] : measured.e2e.notes) {
            printed.notes.emplace("traced_phase." + k, v);
        }
    }

    const std::string line = result_line(printed);
    const std::string path = cfg.out_dir + "/result-" + cfg.workload +
                             "-seed" + std::to_string(cfg.seed) + "-trace" +
                             std::to_string(trace) + ".json";
    {
        std::ofstream rec(path);
        rec << "{\"notes\": {";
        bool first = true;
        for (const auto& [k, v] : printed.notes) {
            rec << (first ? "" : ", ") << json_string(k) << ": "
                << json_string(v);
            first = false;
        }
        rec << "}, \"result\": " << line << "}\n";
    }

    std::printf("# workload %s seed %llu trace %d team %d on %s (%d procs)\n",
                cfg.workload.c_str(),
                static_cast<unsigned long long>(cfg.seed), trace, cfg.team,
                cpu_model().c_str(), nproc);
    for (const auto& [n, m] : printed.metrics) {
        std::printf("# %-34s %16.6g %s\n", n.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("# record: %s\n", path.c_str());
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return printed.correct ? 0 : 1;
}
