/**
 * @file
 * GNNAdvisor-like SpMM baseline (Wang et al., OSDI'21), the second
 * comparison point of Fig. 8 / Fig. 9.
 *
 * GNNAdvisor partitions each row's nonzeros into fixed-size neighbour
 * groups, assigns groups to warps, stages partial sums in shared memory
 * and atomically merges them into the output — trading the row-wise
 * kernel's register accumulation for balance. It still fetches the full
 * dense row X[j, :] per nonzero, and pays neighbour-group metadata reads
 * plus atomic write-back; the paper measures it ~1.3-1.4x slower than
 * cuSPARSE on high-degree graphs, which this model reproduces via its
 * extra traffic plus an efficiency factor.
 *
 * The functional output is bitwise-identical to spmmReference at any
 * MAXK_THREADS: each row's partial sums accumulate in one double buffer
 * across its neighbour groups (row-aligned chunks keep them on one
 * worker) and are cast once at the row's last group.
 */

#ifndef MAXK_KERNELS_SPMM_GNNA_HH
#define MAXK_KERNELS_SPMM_GNNA_HH

#include "gpusim/kernel_stats.hh"
#include "graph/csr.hh"
#include "graph/edge_groups.hh"
#include "kernels/sim_options.hh"
#include "tensor/matrix.hh"

namespace maxk
{

/** Efficiency factor modelling GNNAdvisor's tuning gap. */
constexpr double kGnnaEfficiency = 0.78;

/**
 * Y = A * X with the GNNAdvisor-like neighbour-group kernel.
 *
 * @param part pre-built neighbour-group partition (reused across calls,
 *             as GNNAdvisor builds it once during preprocessing)
 */
gpusim::KernelStats spmmGnna(const CsrGraph &a,
                             const EdgeGroupPartition &part,
                             const Matrix &x, Matrix &y,
                             const SimOptions &opt = {});

} // namespace maxk

#endif // MAXK_KERNELS_SPMM_GNNA_HH
