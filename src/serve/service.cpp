#include "serve/service.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "solver/refined.hpp"
#include "workload/stencil.hpp"
#include "xpu/retry.hpp"

namespace batchlin::serve {

namespace {

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/// Exact compatibility check behind the hashed grouping key: equal
/// options and a shared sparsity pattern. Makes hash collisions degrade
/// batching, never correctness.
template <typename T>
bool bodies_compatible(const detail::typed_pending<T>& lhs,
                       const detail::typed_pending<T>& rhs)
{
    return lhs.request.opts == rhs.request.opts &&
           solver::can_coalesce(lhs.request.a, rhs.request.a);
}

bool entries_compatible(const detail::pending_entry& lhs,
                        const detail::pending_entry& rhs)
{
    if (lhs.body.index() != rhs.body.index()) {
        return false;
    }
    return std::visit(
        [&](const auto& typed) {
            using typed_type = std::decay_t<decltype(typed)>;
            return bodies_compatible(typed,
                                     std::get<typed_type>(rhs.body));
        },
        lhs.body);
}

}  // namespace

std::string to_string(request_status status)
{
    switch (status) {
    case request_status::ok:
        return "ok";
    case request_status::rejected:
        return "rejected";
    case request_status::expired:
        return "expired";
    case request_status::failed:
        return "failed";
    }
    return "?";
}

double latency_window::quantile(double q) const
{
    if (samples_.empty()) {
        return 0.0;
    }
    std::vector<double> sorted(samples_);
    const std::size_t rank = std::min(
        sorted.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(sorted.size())));
    std::nth_element(sorted.begin(), sorted.begin() + rank, sorted.end());
    return sorted[rank];
}

solve_service::solve_service(xpu::exec_policy policy, service_config config)
    : config_(std::move(config)),
      start_(std::chrono::steady_clock::now())
{
    BATCHLIN_ENSURE_MSG(config_.workers > 0,
                        "service needs at least one worker per shard");
    BATCHLIN_ENSURE_MSG(config_.shards > 0,
                        "service needs at least one shard");
    BATCHLIN_ENSURE_MSG(config_.steal_threshold >= 0,
                        "steal threshold cannot be negative");
    BATCHLIN_ENSURE_MSG(config_.max_batch > 0,
                        "max_batch must be positive");
    BATCHLIN_ENSURE_MSG(config_.max_queue_systems > 0,
                        "admission bound must be positive");
    BATCHLIN_ENSURE_MSG(config_.max_wait.count() >= 0,
                        "batching window cannot be negative");
    BATCHLIN_ENSURE_MSG(config_.idle_flush.count() >= 0,
                        "idle flush window cannot be negative");
    // Operator escape hatch: flip the launch mode without rebuilding the
    // caller (scripts/check.sh runs whole suites per mode this way). The
    // override replaces the *default* only — a policy that explicitly
    // selects a non-direct mode keeps it, so mode-specific tests stay
    // meaningful under a mode-sweeping harness.
    if (policy.launch_mode == xpu::launch_mode::direct) {
        // Read-only env lookup; nothing in batchlin calls setenv.
        // NOLINTNEXTLINE(concurrency-mt-unsafe)
        const char* env = std::getenv("BATCHLIN_LAUNCH_MODE");
        if (env != nullptr && *env != '\0') {
            policy.launch_mode = xpu::parse_launch_mode(env);
        }
    }
    launch_mode_ = policy.launch_mode;
    batch_histogram_.assign(static_cast<std::size_t>(config_.max_batch) + 1,
                            0);

    // Shard override (same escape-hatch contract as the launch mode): a
    // config still at the single-shard default picks up BATCHLIN_SHARDS /
    // BATCHLIN_SHARD_DEVICES; a config that explicitly selects sharding
    // keeps its setting. An explicit device list wins over a bare count.
    if (config_.shards == 1 && config_.shard_devices.empty()) {
        if (auto devices = shard::shard_devices_from_env()) {
            config_.shard_devices = std::move(*devices);
        } else if (auto count = shard::shards_from_env()) {
            config_.shards = *count;
        }
    }
    // Failover override (same escape-hatch contract): a config still at
    // the default picks up BATCHLIN_FAILOVER=1; an explicit setting wins.
    if (!config_.failover) {
        // Read-only env lookup; nothing in batchlin calls setenv.
        // NOLINTNEXTLINE(concurrency-mt-unsafe)
        const char* env = std::getenv("BATCHLIN_FAILOVER");
        if (env != nullptr && *env != '\0' && *env != '0') {
            config_.failover = true;
        }
    }
    registry_ = config_.shard_devices.empty()
                    ? shard::registry::uniform(config_.shards, "PVC-1S",
                                               policy)
                    : shard::registry::from_names(config_.shard_devices,
                                                  policy);
    config_.shards = registry_.size();
    {
        std::vector<perf::device_spec> specs;
        specs.reserve(registry_.entries().size());
        for (const shard::device_entry& e : registry_.entries()) {
            specs.push_back(e.spec);
        }
        router_ = shard::router(std::move(specs));
    }

    for (index_type sidx = 0; sidx < config_.shards; ++sidx) {
        lanes_.emplace_back();
        shard_lane& lane = lanes_.back();
        lane.id = sidx;
        lane.spec = registry_.at(sidx).spec;
        lane.policy = registry_.at(sidx).policy;
        if (static_cast<std::size_t>(sidx) < config_.shard_faults.size()) {
            lane.policy.faults =
                config_.shard_faults[static_cast<std::size_t>(sidx)];
        }
        if (launch_mode_ == xpu::launch_mode::persistent) {
            // Every queued entry carries at least one system, so the
            // admission budget bounds the entry count and no single ring
            // can ever be full with the budget respected.
            lane.ring = std::make_unique<mpmc_ring<detail::pending_ptr>>(
                static_cast<std::size_t>(config_.max_queue_systems));
        }
        for (int i = 0; i < config_.workers; ++i) {
            worker_queues_.emplace_back(lane.policy);
            // A long-lived service must not accumulate unbounded
            // profiling state even if an operator enables profiling for a
            // while.
            worker_queues_.back().set_launch_history_capacity(1024);
            graph_caches_.emplace_back();
        }
    }

    workers_.reserve(static_cast<std::size_t>(config_.workers) *
                     static_cast<std::size_t>(config_.shards));
    for (index_type sidx = 0; sidx < config_.shards; ++sidx) {
        for (int i = 0; i < config_.workers; ++i) {
            if (launch_mode_ == xpu::launch_mode::persistent) {
                workers_.emplace_back(
                    [this, sidx, i] { persistent_loop(sidx, i); });
            } else {
                workers_.emplace_back(
                    [this, sidx, i] { worker_loop(sidx, i); });
            }
        }
    }
    // The hang watchdog only earns its thread when it can actually act:
    // failover on, a nonzero scan interval, and somewhere to fail over
    // to. Worker-side eviction (retry exhaustion) runs regardless.
    if (config_.failover && lanes_.size() > 1 &&
        config_.watchdog_interval.count() > 0 &&
        config_.hang_timeout.count() > 0) {
        watchdog_ = std::thread([this] { watchdog_loop(); });
    }
}

solve_service::~solve_service() { stop(); }

bool solve_service::accepting() const
{
    return accepting_.load(std::memory_order_acquire);
}

void solve_service::drain()
{
    if (launch_mode_ == xpu::launch_mode::persistent) {
        // No condition variable in the lock-free path; poll the progress
        // counters (see the member comment for why the predicate is never
        // transiently true while an entry changes hands).
        while (ring_pending_.load(std::memory_order_acquire) != 0 ||
               ring_in_flight_.load(std::memory_order_acquire) != 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        return;
    }
    std::unique_lock<std::mutex> lk(mu_);
    cv_idle_.wait(lk, [&] {
        return queued_systems_ == 0 && in_flight_entries_ == 0;
    });
}

void solve_service::stop()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        accepting_.store(false, std::memory_order_release);
        stopping_.store(true, std::memory_order_release);
    }
    cv_work_.notify_all();
    cv_space_.notify_all();
    // Ring unconditionally so parked resident workers observe stopping_:
    // a worker parking concurrently with this bump sees the generation
    // change in its `word == heard` re-check and does not sleep.
    bell_.ring_always();
    for (std::thread& worker : workers_) {
        if (worker.joinable()) {
            worker.join();
        }
    }
    if (watchdog_.joinable()) {
        watchdog_.join();
    }
    // A submitter that passed the accepting check just before stop() may
    // have published an entry the exiting workers no longer saw; resolve
    // such stragglers as rejected so no ticket is orphaned.
    for (shard_lane& lane : lanes_) {
        if (!lane.ring) {
            continue;
        }
        detail::pending_ptr leftover;
        while (lane.ring->try_pop(leftover)) {
            ring_pending_.fetch_sub(1, std::memory_order_acq_rel);
            const auto items = static_cast<size_type>(leftover->items);
            ring_systems_.fetch_sub(items, std::memory_order_acq_rel);
            lane.ring_systems.fetch_sub(items, std::memory_order_relaxed);
            lane.backlog_ns.fetch_sub(leftover->cost_ns,
                                      std::memory_order_relaxed);
            ++rejected_requests_;
            reply_without_solving(*leftover, request_status::rejected);
        }
    }
    // Windowed flavor of the same sweep: an evicted lane whose workers
    // exited mid-failover (or a submit racing stop) may leave queued
    // entries behind; no ticket may be orphaned.
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (shard_lane& lane : lanes_) {
            while (!lane.queue.empty()) {
                detail::pending_ptr leftover =
                    std::move(lane.queue.front());
                lane.queue.pop_front();
                const auto items =
                    static_cast<size_type>(leftover->items);
                lane.queued_systems -= items;
                queued_systems_ -= items;
                lane.backlog_ns.fetch_sub(leftover->cost_ns,
                                          std::memory_order_relaxed);
                ++rejected_requests_;
                reply_without_solving(*leftover,
                                      request_status::rejected);
            }
        }
    }
}

service_stats solve_service::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    service_stats s;
    s.submitted_requests = submitted_requests_;
    s.submitted_systems = submitted_systems_;
    s.completed_requests = done_.completed_requests;
    s.completed_systems = done_.completed_systems;
    s.rejected_requests = rejected_requests_;
    s.expired_requests =
        expired_requests_.load(std::memory_order_relaxed);
    s.failed_requests = failed_requests_.load(std::memory_order_relaxed) +
                        done_.failed_requests;
    s.batches_launched = batches_launched_;
    s.launch_faults = done_.launch_faults;
    s.launch_retries = done_.launch_retries;
    s.degraded_launches = done_.degraded_launches;
    s.recovered_requests = done_.recovered_requests;
    s.launches_recorded = done_.launches_recorded;
    s.replays = done_.replays;
    s.rebind_only = done_.rebind_only;
    s.refined_batches = done_.refined_batches;
    s.refine_sweeps = done_.refine_sweeps;
    s.refine_fallbacks = done_.refine_fallbacks;
    s.watchdog_evictions =
        watchdog_evictions_.load(std::memory_order_relaxed);
    s.migrations = migrations_.load(std::memory_order_relaxed);
    s.migrated_systems = migrated_systems_.load(std::memory_order_relaxed);
    s.shed_requests = shed_requests_.load(std::memory_order_relaxed);
    s.brownout_level =
        static_cast<int>(brownout_level_.load(std::memory_order_relaxed));
    s.brownout_max =
        static_cast<int>(brownout_max_.load(std::memory_order_relaxed));
    s.brownout_batches =
        brownout_batches_.load(std::memory_order_relaxed);
    if (launch_mode_ == xpu::launch_mode::persistent) {
        s.queue_depth_requests =
            ring_pending_.load(std::memory_order_acquire);
        s.queue_depth_systems = static_cast<std::uint64_t>(
            ring_systems_.load(std::memory_order_acquire));
    } else {
        std::uint64_t depth_requests = 0;
        for (const shard_lane& lane : lanes_) {
            depth_requests += lane.queue.size();
        }
        s.queue_depth_requests = depth_requests;
        s.queue_depth_systems = static_cast<std::uint64_t>(queued_systems_);
    }
    s.uptime_seconds =
        seconds_between(start_, std::chrono::steady_clock::now());
    s.shards.reserve(lanes_.size());
    for (const shard_lane& lane : lanes_) {
        shard_stats ss;
        ss.shard = lane.id;
        ss.device = lane.spec.name;
        ss.routed_requests =
            lane.routed_requests.load(std::memory_order_relaxed);
        ss.routed_systems =
            lane.routed_systems.load(std::memory_order_relaxed);
        ss.completed_systems = lane.completed_systems;
        ss.batches_launched = lane.batches_launched;
        ss.steals = lane.steals.load(std::memory_order_relaxed);
        ss.stolen_systems =
            lane.stolen_systems.load(std::memory_order_relaxed);
        ss.launch_faults = lane.launch_faults;
        ss.breaker_trips = lane.brk.trips;
        ss.breaker_active = lane.brk.active();
        switch (lane.guard.current()) {
        case shard::lane_state::healthy:
            ss.state = "healthy";
            break;
        case shard::lane_state::evicted:
            ss.state = "evicted";
            break;
        case shard::lane_state::probing:
            ss.state = "probing";
            break;
        }
        ss.evictions =
            lane.guard.evictions.load(std::memory_order_relaxed);
        ss.probes = lane.guard.probes.load(std::memory_order_relaxed);
        ss.probe_successes =
            lane.guard.probe_successes.load(std::memory_order_relaxed);
        ss.migrated_requests =
            lane.migrated_requests.load(std::memory_order_relaxed);
        ss.migrated_systems =
            lane.migrated_systems.load(std::memory_order_relaxed);
        ss.heartbeat = lane.heartbeat.load(std::memory_order_relaxed);
        ss.queue_depth_systems =
            launch_mode_ == xpu::launch_mode::persistent
                ? static_cast<std::uint64_t>(
                      lane.ring_systems.load(std::memory_order_acquire))
                : static_cast<std::uint64_t>(lane.queued_systems);
        ss.backlog_ns = lane.backlog_ns.load(std::memory_order_relaxed);
        ss.modeled_busy_seconds =
            static_cast<double>(lane.modeled_busy_ns) * 1e-9;
        ss.solves_per_sec =
            s.uptime_seconds > 0.0
                ? static_cast<double>(lane.completed_systems) /
                      s.uptime_seconds
                : 0.0;
        s.steals += ss.steals;
        s.breaker_trips += ss.breaker_trips;
        s.breaker_active = s.breaker_active || ss.breaker_active;
        s.evictions += ss.evictions;
        s.probes += ss.probes;
        s.probe_successes += ss.probe_successes;
        s.shards.push_back(std::move(ss));
    }
    s.batch_size_histogram = batch_histogram_;
    s.p50_latency_seconds = latency_.quantile(0.50);
    s.p99_latency_seconds = latency_.quantile(0.99);
    s.solves_per_sec =
        s.uptime_seconds > 0.0
            ? static_cast<double>(done_.completed_systems) /
                  s.uptime_seconds
            : 0.0;
    s.mean_batch_size =
        batches_launched_ > 0
            ? static_cast<double>(batched_systems_sum_) /
                  static_cast<double>(batches_launched_)
            : 0.0;
    return s;
}

shard::decision solve_service::route_request(std::uint64_t key,
                                             index_type items,
                                             index_type rows,
                                             index_type nnz,
                                             index_type exclude) const
{
    if (lanes_.size() == 1) {
        return router_.route(key, items, rows, nnz, {});
    }
    std::vector<std::int64_t> backlog;
    backlog.reserve(lanes_.size());
    std::vector<char> alive;
    alive.reserve(lanes_.size());
    bool any_dead = false;
    for (const shard_lane& lane : lanes_) {
        backlog.push_back(lane.backlog_ns.load(std::memory_order_relaxed));
        const bool routable =
            lane.guard.available() && lane.id != exclude;
        alive.push_back(routable ? 1 : 0);
        any_dead = any_dead || !routable;
    }
    return router_.route(key, items, rows, nnz, backlog,
                         any_dead ? &alive : nullptr);
}

std::int64_t solve_service::steady_now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

index_type solve_service::alive_lanes_excluding(index_type except) const
{
    index_type alive = 0;
    for (const shard_lane& lane : lanes_) {
        if (lane.id != except && lane.guard.available()) {
            ++alive;
        }
    }
    return alive;
}

bool solve_service::evict_lane(shard_lane& lane, bool by_watchdog)
{
    if (!lane.guard.try_evict()) {
        return false;
    }
    lane.evicted_at_ns.store(steady_now_ns(), std::memory_order_release);
    if (by_watchdog) {
        watchdog_evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
}

void solve_service::migrate_entry(shard_lane& from,
                                  detail::pending_ptr entry)
{
    // Precondition: the entry is fully off-books — not on any queue or
    // ring, its backlog charge retired, and (persistent mode) its global
    // admission budget released. Called without mu_ held.
    const auto items = static_cast<size_type>(entry->items);
    // Deadline checkpoint 5 of 5 (failover re-queue): a request that
    // outlived its deadline while its shard died expires instead of
    // riding the migration.
    if (entry->deadline <= std::chrono::steady_clock::now()) {
        expired_requests_.fetch_add(1, std::memory_order_relaxed);
        reply_without_solving(*entry, request_status::expired);
        return;
    }
    const index_type cap = config_.max_migrations > 0
                               ? config_.max_migrations
                               : config_.shards;
    if (entry->migrations >= cap ||
        alive_lanes_excluding(from.id) == 0) {
        failed_requests_.fetch_add(1, std::memory_order_relaxed);
        reply_without_solving(
            *entry, request_status::failed,
            "failover: no healthy shard left to migrate to");
        return;
    }
    const auto [rows, nnz] = std::visit(
        [](const auto& typed) {
            return std::make_pair(solver::rows_of(typed.request.a),
                                  solver::pattern_nnz(typed.request.a));
        },
        entry->body);
    const shard::decision where =
        route_request(entry->key, entry->items, rows, nnz, from.id);
    shard_lane& target = lanes_[static_cast<std::size_t>(where.shard)];
    entry->shard = where.shard;
    entry->cost_ns = where.cost_ns;
    ++entry->migrations;
    migrations_.fetch_add(1, std::memory_order_relaxed);
    migrated_systems_.fetch_add(static_cast<std::uint64_t>(items),
                                std::memory_order_relaxed);
    from.migrated_requests.fetch_add(1, std::memory_order_relaxed);
    from.migrated_systems.fetch_add(static_cast<std::uint64_t>(items),
                                    std::memory_order_relaxed);
    target.backlog_ns.fetch_add(where.cost_ns, std::memory_order_relaxed);
    if (launch_mode_ == xpu::launch_mode::persistent) {
        // Re-reserve the global budget the pop released. Unconditional:
        // already-admitted work must not be dropped because new arrivals
        // filled the budget meanwhile — the transient overshoot is
        // bounded by one batch and drains with the backlog.
        ring_systems_.fetch_add(items, std::memory_order_acq_rel);
        target.ring_systems.fetch_add(items, std::memory_order_relaxed);
        ring_pending_.fetch_add(1, std::memory_order_seq_cst);
        while (!target.ring->try_push(entry)) {
            std::this_thread::yield();
        }
        bell_.ring();
        return;
    }
    {
        std::lock_guard<std::mutex> lk(mu_);
        target.queue.push_back(std::move(entry));
        target.queued_systems += items;
        queued_systems_ += items;
    }
    cv_work_.notify_all();
}

void solve_service::failover_drain(shard_lane& lane)
{
    if (launch_mode_ == xpu::launch_mode::persistent) {
        detail::pending_ptr entry;
        while (lane.ring->try_pop(entry)) {
            // Same in_flight-before-pending order as pop_from: the drain
            // predicate must never observe the entry in neither counter.
            ring_in_flight_.fetch_add(1, std::memory_order_acq_rel);
            ring_pending_.fetch_sub(1, std::memory_order_acq_rel);
            const auto items = static_cast<size_type>(entry->items);
            ring_systems_.fetch_sub(items, std::memory_order_acq_rel);
            lane.ring_systems.fetch_sub(items, std::memory_order_relaxed);
            lane.backlog_ns.fetch_sub(entry->cost_ns,
                                      std::memory_order_relaxed);
            migrate_entry(lane, std::move(entry));
            ring_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
        }
        return;
    }
    std::vector<detail::pending_ptr> drained;
    {
        std::lock_guard<std::mutex> lk(mu_);
        while (!lane.queue.empty()) {
            detail::pending_ptr entry = std::move(lane.queue.front());
            lane.queue.pop_front();
            const auto items = static_cast<size_type>(entry->items);
            lane.queued_systems -= items;
            queued_systems_ -= items;
            // Booked in-flight for the handoff so drain() cannot observe
            // a transient "all quiet" while entries sit in the local
            // vector.
            ++in_flight_entries_;
            lane.backlog_ns.fetch_sub(entry->cost_ns,
                                      std::memory_order_relaxed);
            drained.push_back(std::move(entry));
        }
    }
    if (drained.empty()) {
        return;
    }
    cv_space_.notify_all();
    const std::size_t count = drained.size();
    for (detail::pending_ptr& entry : drained) {
        migrate_entry(lane, std::move(entry));
    }
    {
        std::lock_guard<std::mutex> lk(mu_);
        in_flight_entries_ -= count;
        if (queued_systems_ == 0 && in_flight_entries_ == 0) {
            cv_idle_.notify_all();
        }
    }
}

bool solve_service::send_probe(xpu::queue& q) const
{
    // Synthetic probe batch: a single 4-row SPD tridiagonal CG solve
    // built by the service — client data never rides a suspect device.
    // The probe advances the queue's launch counter like any launch, so
    // a device-lost schedule with a revival index is eventually escaped.
    try {
        solver::batch_matrix<double> a{
            work::stencil_3pt<double>(1, 4, 0x9b0be5eedULL)};
        mat::batch_dense<double> b = work::random_rhs<double>(1, 4, 7);
        mat::batch_dense<double> x(1, 4, 1);
        solver::solve_options opts;
        opts.solver = solver::solver_type::cg;
        opts.criterion = batchlin::stop::relative(1e-8, 64);
        std::vector<solver::assembly_part<double>> part;
        part.push_back({&a, &b, &x});
        (void)solver::solve_coalesced<double>(q, part, opts);
        return true;
    } catch (...) {
        return false;
    }
}

bool solve_service::maybe_probe(shard_lane& lane, xpu::queue& q)
{
    if (lane.guard.available()) {
        return true;
    }
    const std::int64_t cooldown_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            config_.probe_interval)
            .count();
    if (steady_now_ns() -
            lane.evicted_at_ns.load(std::memory_order_acquire) <
        cooldown_ns) {
        return false;
    }
    if (!lane.guard.try_begin_probe()) {
        return false;
    }
    if (send_probe(q)) {
        lane.guard.probe_succeeded();
        // Routing weight is restored; wake windowed workers (and
        // submitters parked on backpressure) into the healthy path.
        cv_work_.notify_all();
        cv_space_.notify_all();
        return true;
    }
    lane.evicted_at_ns.store(steady_now_ns(), std::memory_order_release);
    lane.guard.probe_failed();
    return false;
}

void solve_service::watchdog_loop()
{
    const std::int64_t timeout_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            config_.hang_timeout)
            .count();
    while (!stopping_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(config_.watchdog_interval);
        if (stopping_.load(std::memory_order_acquire)) {
            return;
        }
        for (shard_lane& lane : lanes_) {
            const std::int64_t started =
                lane.launch_started_ns.load(std::memory_order_acquire);
            if (started == 0 ||
                steady_now_ns() - started < timeout_ns) {
                continue;
            }
            if (alive_lanes_excluding(lane.id) == 0) {
                continue;  // nowhere to fail over to
            }
            if (evict_lane(lane, /*by_watchdog=*/true)) {
                // The wedged batch itself is finished by its worker when
                // the launch returns or throws; everything still queued
                // behind it is drained onto the survivors now.
                failover_drain(lane);
                cv_work_.notify_all();
                bell_.ring_always();
            }
        }
    }
}

int solve_service::brownout_for_depth(size_type depth_systems) const
{
    if (!config_.brownout) {
        return 0;
    }
    const double frac =
        static_cast<double>(depth_systems) /
        static_cast<double>(config_.max_queue_systems);
    if (frac >= config_.brownout_high) {
        return 3;
    }
    if (frac >= config_.brownout_mid) {
        return 2;
    }
    if (frac >= config_.brownout_low) {
        return 1;
    }
    return 0;
}

int solve_service::steal_victim(index_type thief_shard) const
{
    if (lanes_.size() < 2) {
        return -1;
    }
    int victim = -1;
    // Auto threshold (0): only overflow beyond what the victim's own next
    // launch can absorb is worth moving.
    size_type deepest = config_.steal_threshold > 0
                            ? static_cast<size_type>(config_.steal_threshold)
                            : static_cast<size_type>(config_.max_batch);
    for (const shard_lane& lane : lanes_) {
        const size_type depth =
            launch_mode_ == xpu::launch_mode::persistent
                ? lane.ring_systems.load(std::memory_order_acquire)
                : lane.queued_systems;
        if (lane.id != thief_shard && depth > deepest) {
            deepest = depth;
            victim = static_cast<int>(lane.id);
        }
    }
    return victim;
}

void solve_service::book_steal(shard_lane& thief, shard_lane& victim,
                               std::vector<detail::pending_ptr>& entries,
                               index_type systems)
{
    thief.steals.fetch_add(1, std::memory_order_relaxed);
    thief.stolen_systems.fetch_add(static_cast<std::uint64_t>(systems),
                                   std::memory_order_relaxed);
    for (detail::pending_ptr& entry : entries) {
        victim.backlog_ns.fetch_sub(entry->cost_ns, std::memory_order_relaxed);
        thief.backlog_ns.fetch_add(entry->cost_ns, std::memory_order_relaxed);
        entry->shard = thief.id;
    }
}

detail::pending_ptr solve_service::pop_entry_locked(shard_lane& lane,
                                                    std::size_t index)
{
    detail::pending_ptr entry = std::move(
        lane.queue[static_cast<std::deque<detail::pending_ptr>::size_type>(
            index)]);
    lane.queue.erase(lane.queue.begin() +
                     static_cast<std::deque<
                         detail::pending_ptr>::difference_type>(index));
    lane.queued_systems -= static_cast<size_type>(entry->items);
    queued_systems_ -= static_cast<size_type>(entry->items);
    ++in_flight_entries_;
    cv_space_.notify_all();
    return entry;
}

void solve_service::worker_loop(index_type shard_id, int local_id)
{
    const std::size_t widx =
        static_cast<std::size_t>(shard_id) *
            static_cast<std::size_t>(config_.workers) +
        static_cast<std::size_t>(local_id);
    xpu::queue& q = worker_queues_[widx];
    detail::graph_cache& cache = graph_caches_[widx];
    shard_lane& own = lanes_[static_cast<std::size_t>(shard_id)];
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        own.heartbeat.fetch_add(1, std::memory_order_relaxed);
        cv_work_.wait(lk, [&] {
            return stopping_ || !own.queue.empty() ||
                   steal_victim(shard_id) >= 0 ||
                   (config_.failover && !own.guard.available());
        });
        if (config_.failover && !own.guard.available()) {
            // Evicted lane: this worker must not execute client batches.
            // Drain anything still queued here onto the survivors, then
            // spend the idle time half-open probing for revival.
            lk.unlock();
            failover_drain(own);
            if (stopping_.load(std::memory_order_acquire)) {
                lk.lock();
                if (own.queue.empty() &&
                    steal_victim(shard_id) < 0) {
                    return;
                }
                continue;
            }
            if (!maybe_probe(own, q)) {
                // Still dead: sleep out the probe cooldown off-mutex so
                // an evicted lane costs no CPU (stop() interrupts via
                // the stopping_ check above on the next pass).
                std::this_thread::sleep_for(config_.probe_interval);
            }
            lk.lock();
            continue;
        }
        bool stolen = false;
        shard_lane* src = &own;
        if (own.queue.empty()) {
            const int victim = steal_victim(shard_id);
            if (victim < 0) {
                if (stopping_) {
                    return;
                }
                continue;
            }
            src = &lanes_[static_cast<std::size_t>(victim)];
            stolen = true;
        }

        std::vector<detail::pending_ptr> batch;
        batch.push_back(pop_entry_locked(*src, 0));
        const auto now = std::chrono::steady_clock::now();
        if (batch.front()->deadline <= now) {
            // Already dead on arrival at the worker: complete it without
            // opening a batching window for it.
            expired_requests_.fetch_add(1, std::memory_order_relaxed);
            --in_flight_entries_;
            detail::pending_ptr dead = std::move(batch.front());
            src->backlog_ns.fetch_sub(dead->cost_ns,
                                      std::memory_order_relaxed);
            lk.unlock();
            reply_without_solving(*dead, request_status::expired);
            lk.lock();
            if (queued_systems_ == 0 && in_flight_entries_ == 0) {
                cv_idle_.notify_all();
            }
            continue;
        }

        index_type total = batch.front()->items;
        // Brownout level from the admission depth at dequeue: level 1+
        // shrinks the batching window so backlog drains sooner; levels
        // 2/3 additionally cap per-request work inside execute().
        const int brownout = brownout_for_depth(queued_systems_);
        const auto effective_wait =
            brownout >= 1 ? config_.max_wait / 4 : config_.max_wait;
        // A tripped breaker suspends coalescing on this shard: the leader
        // launches solo, so a fault pattern tied to batch composition
        // stops taking whole batches of unrelated requests down with it —
        // while the other shards keep coalescing.
        if (own.brk.remaining == 0) {
            // Gather everything compatible queued on `src`. The steal path
            // launches right away — stolen work is backlog by definition,
            // there is nothing to hold a window open for.
            const auto window_end = batch.front()->enqueued + effective_wait;
            for (;;) {
                for (std::size_t i = 0;
                     i < src->queue.size() && total < config_.max_batch;) {
                    if (src->queue[i]->key == batch.front()->key &&
                        entries_compatible(*batch.front(), *src->queue[i])) {
                        batch.push_back(pop_entry_locked(*src, i));
                        total += batch.back()->items;
                    } else {
                        ++i;
                    }
                }
                if (stolen || total >= config_.max_batch || stopping_) {
                    break;
                }
                if (std::chrono::steady_clock::now() >= window_end) {
                    break;
                }
                // Hold the window open for companions; submit() notifies.
                if (config_.idle_flush.count() > 0 && own.queue.empty()) {
                    // Adaptive flush: this shard's queue is empty, so with
                    // closed-loop clients no companion can arrive until an
                    // in-flight reply resolves. Grant stragglers only a
                    // short grace period instead of burning the whole
                    // window — this is what keeps low-concurrency
                    // coalesced throughput at batch1 levels.
                    const auto flush_at =
                        std::chrono::steady_clock::now() + config_.idle_flush;
                    cv_work_.wait_until(lk, std::min(flush_at, window_end));
                    if (own.queue.empty()) {
                        break;
                    }
                } else {
                    cv_work_.wait_until(lk, window_end);
                }
            }
        }
        if (stolen) {
            book_steal(own, *src, batch, total);
        }

        const std::size_t popped = batch.size();
        lk.unlock();
        try {
            execute(own, q, cache, std::move(batch), brownout);
        } catch (...) {
            // execute() fails tickets individually; anything that still
            // escapes would terminate the worker thread (and with it the
            // process). Swallow it — affected tickets resolve through
            // their tickets; an unresolved slot would hang its client.
        }
        lk.lock();
        in_flight_entries_ -= popped;
        if (queued_systems_ == 0 && in_flight_entries_ == 0) {
            cv_idle_.notify_all();
        }
    }
}

void solve_service::persistent_loop(index_type shard_id, int local_id)
{
    const std::size_t widx =
        static_cast<std::size_t>(shard_id) *
            static_cast<std::size_t>(config_.workers) +
        static_cast<std::size_t>(local_id);
    xpu::queue& q = worker_queues_[widx];
    detail::graph_cache& cache = graph_caches_[widx];
    shard_lane& own = lanes_[static_cast<std::size_t>(shard_id)];
    int idle = 0;
    for (;;) {
        own.heartbeat.fetch_add(1, std::memory_order_relaxed);
        if (config_.failover && !own.guard.available()) {
            // Evicted lane, resident flavor: push queued work to the
            // survivors and spend the idle time half-open probing. The
            // worker keeps running so a successful probe can resume it.
            failover_drain(own);
            if (stopping_.load(std::memory_order_acquire) &&
                ring_pending_.load(std::memory_order_acquire) == 0) {
                return;
            }
            if (!maybe_probe(own, q)) {
                std::this_thread::sleep_for(config_.probe_interval);
            }
            continue;
        }
        // Gather a chunk without blocking — own ring first, then (when
        // idle) the deepest neighbor past the steal threshold. No
        // batching window: the resident loop launches whatever has
        // accumulated — under load the ring itself is the window (entries
        // pile up while the previous batch solves), and when idle there
        // is nothing to wait for.
        std::vector<detail::pending_ptr> chunk;
        index_type total = 0;
        auto pop_from = [&](shard_lane& lane) {
            detail::pending_ptr entry;
            while (total < config_.max_batch && lane.ring->try_pop(entry)) {
                // in_flight is bumped before pending drops so the drain
                // predicate (pending == 0 && in_flight == 0) never
                // observes this entry in neither counter.
                ring_in_flight_.fetch_add(1, std::memory_order_acq_rel);
                ring_pending_.fetch_sub(1, std::memory_order_acq_rel);
                const auto items = static_cast<size_type>(entry->items);
                ring_systems_.fetch_sub(items, std::memory_order_acq_rel);
                lane.ring_systems.fetch_sub(items,
                                            std::memory_order_relaxed);
                total += entry->items;
                chunk.push_back(std::move(entry));
            }
        };
        pop_from(own);
        if (chunk.empty()) {
            const int victim = steal_victim(shard_id);
            if (victim >= 0) {
                shard_lane& vic =
                    lanes_[static_cast<std::size_t>(victim)];
                pop_from(vic);
                if (!chunk.empty()) {
                    book_steal(own, vic, chunk, total);
                }
            }
        }
        if (chunk.empty()) {
            if (stopping_.load(std::memory_order_acquire) &&
                ring_pending_.load(std::memory_order_acquire) == 0) {
                return;
            }
            // Idle backoff: a couple of polite yields (the producers are
            // usually mid-submit on the same host), then park on the
            // doorbell futex instead of burning the core in a poll loop
            // — an idle resident worker must cost nothing. The parked
            // registration is seq_cst against the producer's pending
            // increment (serve/doorbell.hpp), so a push between the
            // re-check and the wait is always answered by a bump.
            if (++idle < 4) {
                std::this_thread::yield();
                continue;
            }
            bell_.park([&] {
                return ring_pending_.load(std::memory_order_seq_cst) != 0 ||
                       stopping_.load(std::memory_order_acquire);
            });
            continue;
        }
        idle = 0;
        const int brownout = brownout_for_depth(
            ring_systems_.load(std::memory_order_acquire));

        // Group the chunk into compatible fused launches. FIFO arrivals
        // of one coalescing key are usually adjacent, so the quadratic
        // sweep stays tiny (chunk is bounded by max_batch systems).
        const bool solo = own.brk.suspended.load(std::memory_order_acquire);
        std::vector<char> taken(chunk.size(), 0);
        for (std::size_t i = 0; i < chunk.size(); ++i) {
            if (taken[i]) {
                continue;
            }
            std::vector<detail::pending_ptr> group;
            group.push_back(std::move(chunk[i]));
            taken[i] = 1;
            index_type gtotal = group.front()->items;
            if (!solo) {
                for (std::size_t j = i + 1; j < chunk.size(); ++j) {
                    if (taken[j] ||
                        gtotal + chunk[j]->items > config_.max_batch) {
                        continue;
                    }
                    if (chunk[j]->key == group.front()->key &&
                        entries_compatible(*group.front(), *chunk[j])) {
                        gtotal += chunk[j]->items;
                        taken[j] = 1;
                        group.push_back(std::move(chunk[j]));
                    }
                }
            }
            const std::size_t popped = group.size();
            try {
                execute(own, q, cache, std::move(group), brownout);
            } catch (...) {
                // execute() resolves tickets individually; see
                // worker_loop for why nothing may escape.
            }
            ring_in_flight_.fetch_sub(popped, std::memory_order_acq_rel);
        }
    }
}

/// RAII publisher of this worker's in-flight launch age: the watchdog
/// reads `launch_started_ns` to spot wedged lanes. One slot per lane is
/// enough — any wedged worker pins a nonzero age, and CAS keeps
/// concurrent workers of one lane from clearing each other's stamp.
namespace {
struct launch_age_scope {
    conc::atomic<std::int64_t>& slot;
    std::int64_t stamp = 0;
    launch_age_scope(conc::atomic<std::int64_t>& s, std::int64_t now)
        : slot(s)
    {
        std::int64_t expected = 0;
        if (slot.compare_exchange_strong(expected, now,
                                         std::memory_order_acq_rel)) {
            stamp = now;
        }
    }
    ~launch_age_scope()
    {
        if (stamp != 0) {
            std::int64_t expected = stamp;
            slot.compare_exchange_strong(expected, 0,
                                         std::memory_order_acq_rel);
        }
    }
};
}  // namespace

namespace detail {

struct batch_record {
    std::chrono::steady_clock::time_point launch_time;
    batch_tally tally;
    xpu::retry_tally tries;
    std::uint64_t expired = 0;
    /// Shape of the live batch, captured before the request matrices
    /// move into the replies: the modeled-busy-time inputs.
    index_type rows = 0;
    index_type nnz = 0;
    /// Fused size of every launch that produced replies.
    std::vector<index_type> launch_sizes;
    std::vector<double> latencies;
    /// Non-null in persistent mode: the wakes swept once the whole batch
    /// is resolved (see execute).
    std::vector<conc::atomic<std::uint32_t>*>* deferred_wakes = nullptr;
};

batch_tally& batch_tally::operator+=(const batch_tally& other)
{
    completed_requests += other.completed_requests;
    completed_systems += other.completed_systems;
    failed_requests += other.failed_requests;
    launch_faults += other.launch_faults;
    launch_retries += other.launch_retries;
    degraded_launches += other.degraded_launches;
    recovered_requests += other.recovered_requests;
    launches_recorded += other.launches_recorded;
    replays += other.replays;
    rebind_only += other.rebind_only;
    refined_batches += other.refined_batches;
    refine_sweeps += other.refine_sweeps;
    refine_fallbacks += other.refine_fallbacks;
    return *this;
}

template <typename T>
solver::solve_result graph_cache::solve(
    xpu::queue& q, const std::vector<solver::assembly_part<T>>& parts,
    std::uint64_t key, const solver::solve_options& opts,
    xpu::submit_cost cost, batch_tally& tally)
{
    index_type items = 0;
    for (const solver::assembly_part<T>& part : parts) {
        items += part.items();
    }
    std::vector<slot<T>>& cached = slots<T>();
    slot<T>* hit = nullptr;
    for (slot<T>& s : cached) {
        if (s.key == key && s.items == items && s.rec &&
            s.rec->compatible(parts, opts)) {
            hit = &s;
            break;
        }
    }
    if (hit) {
        hit->rec->rebind(parts);
        ++tally.rebind_only;
    } else {
        // Record first, then pick the victim slot: a throwing record
        // leaves the cache unchanged. Invalidated recordings are the
        // preferred victims, then a free slot, then the least recently
        // used one.
        auto rec = solver::recorded_solve<T>::record(q, parts, opts);
        ++tally.launches_recorded;
        for (slot<T>& s : cached) {
            if (!s.rec || !s.rec->valid()) {
                hit = &s;
                break;
            }
        }
        if (!hit && cached.size() < kEntries) {
            hit = &cached.emplace_back();
        }
        if (!hit) {
            hit = &*std::min_element(
                cached.begin(), cached.end(),
                [](const slot<T>& lhs, const slot<T>& rhs) {
                    return lhs.last_use < rhs.last_use;
                });
        }
        hit->key = key;
        hit->items = items;
        hit->rec = std::move(rec);
    }
    hit->last_use = ++tick;
    ++tally.replays;
    solver::solve_result result;
    try {
        result.wall_seconds = hit->rec->replay(q, cost);
    } catch (const xpu::device_error&) {
        // Never replay a poisoned graph: drop the recording so the retry
        // re-records from scratch.
        hit->rec->invalidate();
        throw;
    }
    hit->rec->scatter(parts);
    result.log = hit->rec->log();
    result.plan = hit->rec->plan();
    result.config = hit->rec->config();
    return result;
}

}  // namespace detail

namespace {

template <typename T>
detail::typed_pending<T>& typed_of(detail::pending_entry& entry)
{
    return std::get<detail::typed_pending<T>>(entry.body);
}

template <typename T>
solver::assembly_part<T> part_of(detail::pending_entry& entry)
{
    auto& request = typed_of<T>(entry).request;
    return {&request.a, &request.b, &request.x};
}

/// The options a batch solves with: spill zeroing skipped when the
/// service is configured to, and the brownout caps applied. Levels 2/3
/// trade per-request quality for drain rate (opt-in via
/// `service_config::brownout`; they change numerics, see DESIGN.md §14):
/// level 2 strips refinement down to one sweep, level 3 additionally
/// shortens the GMRES basis. CG/BiCGSTAB requests only feel level 2.
solver::solve_options batch_options(solver::solve_options opts,
                                    bool skip_spill_zeroing, int brownout)
{
    if (skip_spill_zeroing) {
        opts.zero_spill = false;
    }
    if (brownout >= 2 && opts.refine_sweeps > 1) {
        opts.refine_sweeps = 1;
    }
    if (brownout >= 3 && opts.gmres_restart > 10) {
        opts.gmres_restart = 10;
    }
    return opts;
}

/// The launch stage: one solve of `parts`. Refined batches
/// (refine_sweeps > 0) run the mixed-precision iterative-refinement
/// driver and bypass the graph cache — its outer loop issues a
/// convergence-dependent number of inner launches, so there is no single
/// recordable command graph. The graph launch modes otherwise solve
/// through the worker's cached recording; trsv (not recordable) and the
/// direct mode solve eagerly. Refined and eager solves share the
/// gather -> solve -> scatter skeleton.
template <typename T>
solver::solve_result launch_parts(
    xpu::queue& q, detail::graph_cache& cache, xpu::launch_mode mode,
    std::uint64_t key, const solver::solve_options& opts,
    const std::vector<solver::assembly_part<T>>& parts,
    detail::batch_tally& tally)
{
    const bool trsv = opts.solver == solver::solver_type::trsv;
    if (opts.refine_sweeps > 0 && !trsv) {
        solver::refine_options ropts;
        ropts.max_sweeps = opts.refine_sweeps;
        solver::refined_result refined = solver::detail::solve_assembled(
            parts, [&](const solver::batch_matrix<T>& a,
                       const mat::batch_dense<T>& b, mat::batch_dense<T>& x) {
                return solver::solve_refined(q, a, b, x, opts, ropts);
            });
        ++tally.refined_batches;
        tally.refine_sweeps += static_cast<std::uint64_t>(refined.sweeps);
        tally.refine_fallbacks += refined.fell_back ? 1 : 0;
        solver::solve_result result;
        result.log = std::move(refined.log);
        result.stats = refined.stats;
        result.wall_seconds = refined.wall_seconds;
        return result;
    }
    if (mode != xpu::launch_mode::direct && !trsv) {
        return cache.solve(q, parts, key, opts,
                           mode == xpu::launch_mode::persistent
                               ? xpu::submit_cost::resident
                               : xpu::submit_cost::replay,
                           tally);
    }
    return solver::solve_coalesced<T>(q, parts, opts);
}

/// Resolves `entry` ok with systems [offset, offset + items) of `result`
/// (a launch of `fused` systems, done at `done`) and books it.
template <typename T>
void reply_solved(detail::pending_entry& entry,
                  const solver::solve_result& result, index_type offset,
                  index_type fused, std::chrono::steady_clock::time_point done,
                  detail::batch_record& rec)
{
    detail::typed_pending<T>& typed = typed_of<T>(entry);
    solve_reply<T> reply = detail::reply_for(typed, request_status::ok);
    reply.log = std::move(typed.request.log);
    solver::split_log_into(result.log, offset, entry.items, reply.log);
    reply.fused_systems = fused;
    reply.attempts = rec.tries.attempts;
    reply.queue_seconds = seconds_between(entry.enqueued, rec.launch_time);
    reply.solve_seconds = result.wall_seconds;
    rec.latencies.push_back(seconds_between(entry.enqueued, done));
    detail::try_reply(typed, std::move(reply), rec.deferred_wakes);
    ++rec.tally.completed_requests;
    rec.tally.completed_systems += static_cast<std::uint64_t>(entry.items);
    if (rec.tries.attempts > 1) {
        ++rec.tally.recovered_requests;
    }
}

/// Resolves `entry` failed with `error` unless it already resolved, and
/// books it.
template <typename T>
void reply_failed(detail::pending_entry& entry, const std::string& error,
                  index_type attempts, detail::batch_record& rec)
{
    detail::typed_pending<T>& typed = typed_of<T>(entry);
    solve_reply<T> reply = detail::reply_for(typed, request_status::failed);
    reply.error = error;
    reply.attempts = attempts;
    if (detail::try_reply(typed, std::move(reply), rec.deferred_wakes)) {
        ++rec.tally.failed_requests;
    }
}

}  // namespace

template <typename T>
void solve_service::execute_typed(shard_lane& lane, xpu::queue& q,
                                  detail::graph_cache& cache,
                                  std::vector<detail::pending_ptr>& live,
                                  int brownout, detail::batch_record& rec)
{
    const detail::typed_pending<T>& front = typed_of<T>(*live.front());
    rec.rows = solver::rows_of(front.request.a);
    rec.nnz = solver::pattern_nnz(front.request.a);
    try {
        const std::uint64_t key = live.front()->key;
        const solver::solve_options opts = batch_options(
            front.request.opts, config_.skip_spill_zeroing, brownout);
        std::vector<solver::assembly_part<T>> parts;
        parts.reserve(live.size());
        index_type total = 0;
        for (detail::pending_ptr& entry : live) {
            parts.push_back(part_of<T>(*entry));
            total += entry->items;
        }
        // Every launch goes through the retry stage: device faults retry
        // with capped exponential backoff; anything else propagates to
        // the failure sweep below.
        const xpu::retry_policy retry{config_.launch_retries,
                                      config_.retry_backoff,
                                      config_.max_retry_backoff};
        const auto attempt =
            [&](const std::vector<solver::assembly_part<T>>& p) {
                return xpu::retry_device_faults(retry, rec.tries, [&] {
                    return launch_parts(q, cache, launch_mode_, key, opts, p,
                                        rec.tally);
                });
            };

        if (const auto fused = attempt(parts)) {
            rec.launch_sizes.push_back(total);
            const auto done = std::chrono::steady_clock::now();
            index_type offset = 0;
            for (detail::pending_ptr& entry : live) {
                reply_solved<T>(*entry, *fused, offset, total, done, rec);
                offset += entry->items;
            }
        } else if (config_.failover && alive_lanes_excluding(lane.id) > 0 &&
                   (evict_lane(lane, /*by_watchdog=*/false) ||
                    !lane.guard.available())) {
            // Retry exhaustion with failover on and somewhere to go:
            // declare the lane lost instead of grinding through solo
            // degradation on a device that keeps faulting. The batch's
            // entries migrate to survivors (their tickets resolve over
            // there), and everything still queued behind them drains
            // right after. `evict_lane` may lose the CAS to the watchdog —
            // the lane is equally dead either way, so the migration
            // proceeds.
            for (detail::pending_ptr& entry : live) {
                lane.backlog_ns.fetch_sub(entry->cost_ns,
                                          std::memory_order_relaxed);
                migrate_entry(lane, std::move(entry));
            }
            live.clear();
            failover_drain(lane);
        } else {
            // The fused launch keeps faulting: degrade to per-request
            // solo solves so only the requests that genuinely cannot
            // complete fail — the rest of the batch still resolves ok.
            // Each solo solve continues the fused attempt count.
            rec.tally.degraded_launches = 1;
            const index_type fused_attempts = rec.tries.attempts;
            for (detail::pending_ptr& entry : live) {
                rec.tries.attempts = fused_attempts;
                if (const auto solo = attempt({part_of<T>(*entry)})) {
                    rec.launch_sizes.push_back(entry->items);
                    reply_solved<T>(*entry, *solo, 0, entry->items,
                                    std::chrono::steady_clock::now(), rec);
                } else {
                    reply_failed<T>(*entry,
                                    "device fault persisted through " +
                                        std::to_string(rec.tries.attempts) +
                                        " solve attempts: " +
                                        rec.tries.last_fault,
                                    rec.tries.attempts, rec);
                }
            }
        }
    } catch (const std::exception& ex) {
        // Last-resort failure sweep: resolves every still-pending ticket
        // with `failed`, so a worker never exits leaving unresolved
        // tickets behind, and never double-sets an already-resolved one.
        for (detail::pending_ptr& entry : live) {
            reply_failed<T>(*entry, ex.what(), 1, rec);
        }
    } catch (...) {
        for (detail::pending_ptr& entry : live) {
            reply_failed<T>(*entry, "unknown error in batch execution", 1,
                            rec);
        }
    }
}

void solve_service::execute(shard_lane& lane, xpu::queue& q,
                            detail::graph_cache& cache,
                            std::vector<detail::pending_ptr> batch,
                            int brownout)
{
    detail::batch_record rec;
    rec.launch_time = std::chrono::steady_clock::now();
    launch_age_scope age(lane.launch_started_ns, steady_now_ns());
    // Wake timing: resolution only ever wakes slots a waiter registered
    // on (see reply_slot::resolve). The persistent path additionally
    // defers those wakes to one sweep after the batch is fully resolved —
    // its lock-free admission shrugs off the resulting thundering herd,
    // and each client wakes exactly once per fused window. The windowed
    // path wakes immediately instead: staggered wakeups keep clients
    // refilling the mutex-guarded queue while the worker finishes its
    // bookkeeping, which is what keeps the next window full.
    std::vector<conc::atomic<std::uint32_t>*> wake_list;
    if (launch_mode_ == xpu::launch_mode::persistent) {
        rec.deferred_wakes = &wake_list;
    }

    // The routed cost the batch retires from the lane backlog: expired
    // entries, and live ones unless failover migrates them.
    std::int64_t retired = 0;
    std::vector<detail::pending_ptr> live;
    for (detail::pending_ptr& entry : batch) {
        if (entry->deadline <= rec.launch_time) {
            retired += entry->cost_ns;
            ++rec.expired;
            reply_without_solving(*entry, request_status::expired);
        } else {
            live.push_back(std::move(entry));
        }
    }
    if (!live.empty()) {
        if (live.front()->body.index() == 0) {
            execute_typed<double>(lane, q, cache, live, brownout, rec);
        } else {
            execute_typed<float>(lane, q, cache, live, brownout, rec);
        }
    }
    for (const detail::pending_ptr& entry : live) {
        retired += entry->cost_ns;
    }
    if (retired != 0) {
        // Atomic, so the router's lock-free reads stay consistent
        // without the mutex.
        lane.backlog_ns.fetch_sub(retired, std::memory_order_relaxed);
    }
    rec.tally.launch_faults = static_cast<std::uint64_t>(rec.tries.faults);
    rec.tally.launch_retries = static_cast<std::uint64_t>(rec.tries.retries);
    book_batch(lane, rec, brownout, !live.empty());

    // Deferred wake sweep: every entry of the batch is resolved by now,
    // so a client blocked on its first fused request wakes once and
    // drains its whole window without another sleep. Only slots a waiter
    // actually parked on are in the list, so the sweep issues exactly
    // one syscall per sleeping client, not one per request.
    for (conc::atomic<std::uint32_t>* word : wake_list) {
        detail::futex_wake_all(*word);
    }
}

void solve_service::book_batch(shard_lane& lane,
                               const detail::batch_record& rec, int brownout,
                               bool observed)
{
    std::lock_guard<std::mutex> lk(mu_);
    expired_requests_.fetch_add(rec.expired, std::memory_order_relaxed);
    done_ += rec.tally;
    // Brownout telemetry (all writers hold mu_ here, so plain load/store
    // is race-free; the fields stay atomic for the lock-free readers in
    // stats()).
    brownout_level_.store(static_cast<std::uint32_t>(brownout),
                          std::memory_order_relaxed);
    if (brownout > 0) {
        brownout_batches_.fetch_add(1, std::memory_order_relaxed);
        if (brownout_max_.load(std::memory_order_relaxed) <
            static_cast<std::uint32_t>(brownout)) {
            brownout_max_.store(static_cast<std::uint32_t>(brownout),
                                std::memory_order_relaxed);
        }
    }
    lane.completed_systems += rec.tally.completed_systems;
    lane.launch_faults += rec.tally.launch_faults;
    for (const index_type size : rec.launch_sizes) {
        ++batches_launched_;
        batched_systems_sum_ += static_cast<std::uint64_t>(size);
        const std::size_t bucket =
            size <= config_.max_batch ? static_cast<std::size_t>(size) : 0;
        ++batch_histogram_[bucket];
        ++lane.batches_launched;
        // Modeled device-busy time of the launch that actually ran
        // (fused size, this lane's device): the scaling signal of the
        // shard sweep on a host whose single core serializes shards.
        lane.modeled_busy_ns +=
            static_cast<std::uint64_t>(shard::router::estimate_cost_ns(
                lane.spec, size, rec.rows, rec.nnz));
    }
    for (const double s : rec.latencies) {
        latency_.record(s);
    }
    if (observed) {
        // Per-shard breaker bookkeeping: one observation per execution,
        // faulted if any attempt faulted. A tripped shard cools down
        // alone; its neighbors keep coalescing.
        lane.brk.observe(rec.tally.launch_faults > 0,
                         config_.breaker_fault_ratio, config_.breaker_window,
                         config_.breaker_cooldown);
    }
}

}  // namespace batchlin::serve
