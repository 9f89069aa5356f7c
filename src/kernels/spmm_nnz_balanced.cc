#include "kernels/spmm_nnz_balanced.hh"

#include <vector>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "gpusim/context.hh"
#include "kernels/eg_units.hh"
#include "kernels/spmm_ref.hh"

namespace maxk
{

gpusim::KernelStats
spmmNnzBalanced(const CsrGraph &a, const Matrix &x, Matrix &y,
                const SimOptions &opt)
{
    checkInvariant(x.rows() == a.numNodes(),
                   "spmmNnzBalanced: X row count != |V|");
    const std::size_t dim = x.cols();
    y.ensureShape(a.numNodes(), dim);

    const EdgeGroupPartition &part = a.edgeGroupsCached(opt.workloadCap);
    const std::vector<EdgeGroup> &groups = part.groups();
    const EdgeId unit_nnz = opt.workloadCap * kNnzUnitGroups;
    const std::vector<kernels::EgUnit> units =
        kernels::planEgUnits(a, groups, unit_nnz);
    const std::vector<std::uint8_t> split =
        kernels::markSplitRows(groups, units, a.numNodes());

    // Numeric path: reference-order per-row double accumulation — the
    // unit structure is an accounting concern only, so the functional
    // result is bitwise-identical to spmmReference at any MAXK_THREADS.
    spmmReference(a, x, y);

    gpusim::KernelContext ctx(opt.device, "spmm_nnz_balanced",
                              opt.simulateCaches);

    // Rows that no plain per-unit store covers must be zeroed before
    // the launch: empty rows (no unit owns them) and split rows (their
    // units merge partials atomically into whatever is there).
    ctx.beginPhase("zero-fill");
    for (NodeId r = 0; r < a.numNodes(); ++r)
        if (a.degree(r) == 0 || split[r])
            ctx.globalWrite(r, y.row(r), dim * sizeof(Float));

    ctx.beginPhase("compute");
    // Unit-parallel traffic walk. Chunks hold whole units, so the
    // per-unit aggregate charges — and the serial replay order of the
    // shards — are identical at any thread count.
    const auto chunks =
        splitRange(0, units.size(), 8, resolveThreads(opt.threads));
    gpusim::runSharded(ctx, chunks, [&](auto &dev, std::uint32_t,
                                        IndexRange range) {
        for (std::size_t u = range.begin; u < range.end; ++u) {
            const kernels::EgUnit &unit = units[u];
            const std::uint64_t warp = u + 1;
            const EdgeGroup &first = groups[unit.egBegin];
            const EdgeGroup &last = groups[unit.egEnd - 1];
            const EdgeId e0 = first.begin, e1 = last.end;

            // Row extents plus the unit's contiguous metadata span: one
            // streaming request per array per unit, so sector rounding
            // amortises across the rows the unit covers — the schedule's
            // structural win over per-row metadata fetches.
            dev.globalReadStreaming(
                warp, &a.rowPtr()[first.row],
                (last.row - first.row + 2) * sizeof(EdgeId));
            dev.globalReadStreaming(warp, &a.values()[e0],
                                    (e1 - e0) * sizeof(Float));
            dev.globalReadStreaming(warp, &a.colIdx()[e0],
                                    (e1 - e0) * sizeof(NodeId));
            // Warp-level segmented reduction bookkeeping (row-boundary
            // flags + subwarp scans), independent of dim.
            dev.sharedOps(32, 0);

            for (EdgeId e = e0; e < e1; ++e) {
                dev.globalRead(warp, x.row(a.colIdx()[e]),
                               dim * sizeof(Float));
                dev.flops(2 * dim);
            }

            // Write-back at the last EG of each row within the unit:
            // register-reduced rows store plainly; split rows merge
            // their partial atomically.
            for (std::size_t gi = unit.egBegin; gi < unit.egEnd; ++gi) {
                const EdgeGroup &eg = groups[gi];
                const bool row_ends = gi + 1 == unit.egEnd ||
                                      groups[gi + 1].row != eg.row;
                if (!row_ends)
                    continue;
                if (split[eg.row])
                    dev.globalAtomicAccum(warp, y.row(eg.row),
                                          dim * sizeof(Float));
                else
                    dev.globalWrite(warp, y.row(eg.row),
                                    dim * sizeof(Float));
            }
        }
    });
    return ctx.finish();
}

} // namespace maxk
