/**
 * @file
 * Row-caching SpMM (the Ge-SpMM "rowcaching" schedule): each thread
 * block processes a tile of consecutive adjacency rows and stages the
 * distinct dense X rows the tile references in shared memory, so a
 * neighbour shared by several rows of the tile is fetched from global
 * memory once instead of once per nonzero.
 *
 * The traffic model charges the first occurrence of a column within a
 * tile as a global read plus a shared-memory store; repeat occurrences
 * hit the staged copy (shared-memory traffic only). The staging budget
 * is bounded by the device's shared memory per SM, so wide feature
 * dimensions cap how many rows a tile can hold on-chip — columns beyond
 * the budget fall back to direct global reads. On graphs with
 * neighbourhood overlap between consecutive rows (lattices, clustered
 * orderings) DRAM traffic collapses; on scrambled graphs the staging is
 * pure overhead — exactly the trade the adaptive selector arbitrates.
 */

#ifndef MAXK_KERNELS_SPMM_ROW_CACHING_HH
#define MAXK_KERNELS_SPMM_ROW_CACHING_HH

#include "gpusim/kernel_stats.hh"
#include "graph/csr.hh"
#include "kernels/sim_options.hh"
#include "tensor/matrix.hh"

namespace maxk
{

/** Nonzeros per tile, as a multiple of SimOptions::workloadCap. */
constexpr std::uint32_t kRowCacheTileGroups = 8;

/** Sustained-throughput derate for the staged schedule: the
 *  stage/consume barriers serialise the block and the shared-memory
 *  footprint costs occupancy, so the roofline bound is not reached. */
constexpr double kRowCachingEfficiency = 0.92;

/** Y = A * X with the row-caching kernel. Bitwise-identical to
 *  spmmReference at any MAXK_THREADS. */
gpusim::KernelStats spmmRowCaching(const CsrGraph &a, const Matrix &x,
                                   Matrix &y, const SimOptions &opt = {});

} // namespace maxk

#endif // MAXK_KERNELS_SPMM_ROW_CACHING_HH
