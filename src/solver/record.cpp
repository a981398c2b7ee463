#include "solver/record.hpp"

#include <algorithm>
#include <type_traits>

#include "solver/dispatch_impl.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace batchlin::solver {

template <typename T>
recorded_solve<T>::recorded_solve(batch_matrix<T> a, mat::batch_dense<T> b,
                                  mat::batch_dense<T> x,
                                  const solve_options& opts, slm_plan plan,
                                  kernel_config config,
                                  index_type total_items)
    : a_(std::move(a)),
      b_(std::move(b)),
      x_(std::move(x)),
      opts_(opts),
      plan_(std::move(plan)),
      slots_(plan_),
      config_(config),
      total_items_(total_items),
      spill_(static_cast<std::size_t>(plan_.global_elems_per_group) *
             static_cast<std::size_t>(total_items)),
      log_(total_items)
{}

template <typename T>
std::unique_ptr<recorded_solve<T>> recorded_solve<T>::record(
    xpu::queue& q, const std::vector<assembly_part<T>>& parts,
    const solve_options& opts)
{
    opts.criterion.validate();
    BATCHLIN_ENSURE_MSG(!opts.record_history,
                        "per-iteration history is not supported for "
                        "recorded solves");
    BATCHLIN_ENSURE_MSG(opts.solver != solver_type::trsv,
                        "BatchTrsv cannot be graph-recorded; use the "
                        "direct launch path");
    const index_type total_items = detail::validate_assembly(parts);
    detail::assembled<T> ops = detail::gather(parts, total_items);
    const mat::storage_precision request_storage = storage_of(ops.a);
    solve_setup setup = prepare_solve(q, ops.a, opts);
    if (setup.compressed) {
        // The gathered copy is owned, so an fp32 request compresses it in
        // place once: no per-replay conversion cost exists.
        compress_storage(ops.a);
    }

    std::unique_ptr<recorded_solve> rs(new recorded_solve(
        std::move(ops.a), std::move(ops.b), std::move(ops.x), opts,
        std::move(setup.plan), setup.config, total_items));
    rs->request_storage_ = request_storage;

    const xpu::batch_range range{0, total_items};
    const spill_view<T> spill{rs->spill_.data(),
                              rs->plan_.global_elems_per_group};
    // The recorded closure may point into rs-owned storage only, so the
    // preconditioner moves into the recording before the kernel records.
    const auto launch = [&](auto storage, const auto& concrete, auto&& pc) {
        using S = typename decltype(storage)::type;
        auto owned =
            std::make_shared<std::decay_t<decltype(pc)>>(std::move(pc));
        launch_bound<T, S>(q, concrete, *owned, rs->b_, rs->x_, opts,
                           rs->slots_, rs->config_, spill, rs->log_, range);
        rs->precond_ = std::move(owned);
    };

    xpu::command_graph recorder;
    recorder.begin_recording(q);
    try {
        dispatch_fused(rs->a_, setup.compressed, opts, launch);
        recorder.end_recording();
    } catch (...) {
        if (recorder.recording()) {
            recorder.end_recording();
        }
        throw;
    }
    rs->exec_ = recorder.finalize();
    return rs;
}

template <typename T>
bool recorded_solve<T>::compatible(
    const std::vector<assembly_part<T>>& parts,
    const solve_options& opts) const
{
    if (!exec_.valid() || !(opts == opts_) || parts.empty()) {
        return false;
    }
    index_type items = 0;
    for (const assembly_part<T>& part : parts) {
        if (part.a == nullptr || part.b == nullptr || part.x == nullptr) {
            return false;
        }
        items += part.items();
    }
    if (items != total_items_) {
        return false;
    }
    // The caller's batcher guarantees the parts are mutually coalescible;
    // checking the leader against the recorded pattern covers the batch.
    // Storage compares against the *request-side* mode — a_ itself may be
    // compressed beyond what the requests carry (opts-driven).
    return storage_of(*parts.front().a) == request_storage_ &&
           same_shape(a_, *parts.front().a);
}

template <typename T>
void recorded_solve<T>::rebind(const std::vector<assembly_part<T>>& parts)
{
    detail::gather_into(parts, a_, b_, x_);
    ++rebinds_;
}

template <typename T>
double recorded_solve<T>::replay(xpu::queue& q, xpu::submit_cost cost)
{
    if (plan_.zero_spill && !spill_.empty()) {
        // Match the eager path's per-launch zero fill bit-for-bit.
        std::fill(spill_.begin(), spill_.end(), T{});
    }
    wall_timer timer;
    exec_.replay(q, cost);
    return timer.seconds();
}

template <typename T>
void recorded_solve<T>::scatter(
    const std::vector<assembly_part<T>>& parts) const
{
    detail::scatter(x_, parts);
}

template class recorded_solve<float>;
template class recorded_solve<double>;

}  // namespace batchlin::solver
