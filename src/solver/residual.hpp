// Host-side true-residual computation.
//
// Computes ||b_i - A_i x_i||_2 per batch item directly on the host,
// independent of the device kernels — the ground truth the test suite and
// the examples validate solver output against (iterative solvers monitor
// an implicit residual; this is the explicit one).
#pragma once

#include <vector>

#include "solver/options.hpp"

namespace batchlin::solver {

template <typename T>
std::vector<double> residual_norms(const batch_matrix<T>& a,
                                   const mat::batch_dense<T>& b,
                                   const mat::batch_dense<T>& x);

/// Writes r = b - A x (accumulated in FP64, stored at T) and returns the
/// per-item norms of the stored residual — the refinement RHS and its
/// norms in one pass.
template <typename T>
std::vector<double> residual_vectors(const batch_matrix<T>& a,
                                     const mat::batch_dense<T>& b,
                                     const mat::batch_dense<T>& x,
                                     mat::batch_dense<T>& r);

/// ||v_i||_2 per item, accumulated in FP64.
template <typename T>
std::vector<double> item_norms(const mat::batch_dense<T>& v);

/// ||b - A x|| / ||b|| per item (0/0 counts as 0).
template <typename T>
std::vector<double> relative_residual_norms(const batch_matrix<T>& a,
                                            const mat::batch_dense<T>& b,
                                            const mat::batch_dense<T>& x);

}  // namespace batchlin::solver
