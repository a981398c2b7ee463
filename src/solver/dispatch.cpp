#include "solver/dispatch.hpp"

#include "solver/dispatch_impl.hpp"
#include "solver/trsv.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace batchlin::solver {

std::string to_string(matrix_format f)
{
    switch (f) {
    case matrix_format::dense:
        return "BatchDense";
    case matrix_format::csr:
        return "BatchCsr";
    case matrix_format::ell:
        return "BatchEll";
    }
    return "?";
}

namespace {

template <typename T, typename S>
size_type precond_workspace(precond::type p, index_type rows,
                            index_type nnz, index_type block_size)
{
    switch (p) {
    case precond::type::none:
        return precond::identity<T, S>::workspace_elems(rows, nnz);
    case precond::type::jacobi:
        return precond::jacobi<T, S>::workspace_elems(rows, nnz);
    case precond::type::ilu:
        return precond::ilu0<T, S>::workspace_elems(rows, nnz);
    case precond::type::isai:
        return precond::isai<T, S>::workspace_elems(rows, nnz);
    case precond::type::block_jacobi:
        return precond::block_jacobi<T, S>::workspace_elems(rows, nnz,
                                                            block_size);
    }
    return 0;
}

}  // namespace

template <typename T>
solve_setup prepare_solve(const xpu::queue& q, const batch_matrix<T>& a,
                          const solve_options& opts)
{
    const index_type rows = rows_of(a);
    const index_type nnz = pattern_nnz(a);
    solve_setup setup;
    // Storage axis: what the caller asked for vs what the matrix holds.
    setup.compressed =
        storage_of(a) == mat::storage_precision::fp32 ||
        mat::effective_storage<T>(opts.storage) ==
            mat::storage_precision::fp32;
    const xpu::reduce_path* reduction_override =
        opts.reduction ? &*opts.reduction : nullptr;
    setup.config = choose_launch_config(q.policy(), rows,
                                        opts.sub_group_size,
                                        reduction_override);
    // fp32 payloads pack into half the workspace slots, so the planner
    // sees the smaller footprint and fits more preconditioners into SLM.
    const size_type pc_elems =
        setup.compressed
            ? precond_workspace<T, float>(opts.preconditioner, rows, nnz,
                                          opts.block_jacobi_size)
            : precond_workspace<T, T>(opts.preconditioner, rows, nnz,
                                      opts.block_jacobi_size);
    setup.plan = plan_workspace(opts.solver, rows, nnz, pc_elems,
                                q.policy().slm_bytes_per_group, sizeof(T),
                                opts.gmres_restart, opts.slm);
    setup.plan.zero_spill = opts.zero_spill;
    return setup;
}

template <typename T>
solve_result solve_range(xpu::queue& q, const batch_matrix<T>& a,
                         const mat::batch_dense<T>& b,
                         mat::batch_dense<T>& x, const solve_options& opts,
                         xpu::batch_range range)
{
    opts.criterion.validate();
    const index_type items = items_of(a);
    const index_type rows = rows_of(a);
    BATCHLIN_ENSURE_DIMS(b.num_batch_items() == items &&
                             x.num_batch_items() == items,
                         "batch sizes of A, b, x must match");
    BATCHLIN_ENSURE_DIMS(b.rows() == rows && x.rows() == rows,
                         "vector lengths must match the matrix order");
    BATCHLIN_ENSURE_DIMS(b.cols() == 1 && x.cols() == 1,
                         "batched solve expects single right-hand sides");
    BATCHLIN_ENSURE_DIMS(range.begin >= 0 && range.end <= items &&
                             range.begin <= range.end,
                         "batch range out of bounds");

    const bool trsv = opts.solver == solver_type::trsv;
    if (trsv) {
        BATCHLIN_ENSURE_MSG(
            std::holds_alternative<mat::batch_csr<T>>(a),
            "BatchTrsv requires the BatchCsr format");
        BATCHLIN_ENSURE_MSG(opts.preconditioner == precond::type::none,
                            "BatchTrsv is a direct solve and takes no "
                            "preconditioner");
        // The triangular direct solve has no refinement loop to recover
        // narrowed bits, so it only accepts native storage.
        BATCHLIN_ENSURE_MSG(storage_of(a) == mat::storage_precision::native,
                            "BatchTrsv requires native storage");
    }

    solve_result result;
    result.log = log::batch_log(items);
    if (opts.record_history) {
        result.log.enable_history(opts.criterion.max_iterations);
    }
    solve_setup setup = prepare_solve(q, a, opts);
    result.plan = std::move(setup.plan);
    result.config = setup.config;

    const auto launch = [&](auto storage, const auto& concrete,
                            const auto& pc) {
        using S = typename decltype(storage)::type;
        const bound_plan slots(result.plan);  // resolved once, host side
        spill_buffer<T> spill(q, result.plan, range.size());
        launch_bound<T, S>(q, concrete, pc, b, x, opts, slots,
                           result.config, spill.view(), result.log, range);
    };
    wall_timer timer;
    if (trsv) {
        run_trsv<T>(q, std::get<mat::batch_csr<T>>(a), b, x,
                    opts.trsv_triangle, result.plan, result.config,
                    result.log, range);
    } else if (setup.compressed &&
               storage_of(a) == mat::storage_precision::native) {
        // A native matrix under an fp32 request is compressed into a
        // temporary copy — a convenience for env-driven sweeps, while hot
        // paths (solve_refined, serve) pre-convert once and reuse.
        batch_matrix<T> tmp = a;
        compress_storage(tmp);
        dispatch_fused(tmp, true, opts, launch);
    } else {
        dispatch_fused(a, setup.compressed, opts, launch);
    }
    result.wall_seconds = timer.seconds();
    result.stats = q.last_launch_stats();
    return result;
}

template <typename T>
solve_result solve(xpu::queue& q, const batch_matrix<T>& a,
                   const mat::batch_dense<T>& b, mat::batch_dense<T>& x,
                   const solve_options& opts)
{
    return solve_range(q, a, b, x, opts, {0, items_of(a)});
}

#define BATCHLIN_INSTANTIATE_DISPATCH(T)                                    \
    template solve_result solve<T>(xpu::queue&, const batch_matrix<T>&,     \
                                   const mat::batch_dense<T>&,              \
                                   mat::batch_dense<T>&,                    \
                                   const solve_options&);                   \
    template solve_result solve_range<T>(                                   \
        xpu::queue&, const batch_matrix<T>&, const mat::batch_dense<T>&,    \
        mat::batch_dense<T>&, const solve_options&, xpu::batch_range)

BATCHLIN_INSTANTIATE_DISPATCH(float);
BATCHLIN_INSTANTIATE_DISPATCH(double);

template solve_setup prepare_solve<float>(const xpu::queue&,
                                          const batch_matrix<float>&,
                                          const solve_options&);
template solve_setup prepare_solve<double>(const xpu::queue&,
                                           const batch_matrix<double>&,
                                           const solve_options&);

}  // namespace batchlin::solver
