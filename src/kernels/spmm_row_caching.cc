#include "kernels/spmm_row_caching.hh"

#include <vector>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "gpusim/context.hh"
#include "kernels/eg_units.hh"
#include "kernels/spmm_ref.hh"

namespace maxk
{

gpusim::KernelStats
spmmRowCaching(const CsrGraph &a, const Matrix &x, Matrix &y,
               const SimOptions &opt)
{
    checkInvariant(x.rows() == a.numNodes(),
                   "spmmRowCaching: X row count != |V|");
    const std::size_t dim = x.cols();
    y.ensureShape(a.numNodes(), dim);

    const EdgeGroupPartition &part = a.edgeGroupsCached(opt.workloadCap);
    const std::vector<EdgeGroup> &groups = part.groups();
    const EdgeId tile_nnz = opt.workloadCap * kRowCacheTileGroups;
    const std::vector<kernels::EgUnit> tiles =
        kernels::planEgUnits(a, groups, tile_nnz);
    const std::vector<std::uint8_t> split =
        kernels::markSplitRows(groups, tiles, a.numNodes());

    // Staging budget: dense X rows the tile can pin on-chip. Half the
    // SM's shared memory goes to the row cache (the rest covers the
    // block's metadata buffers and occupancy headroom), so wide feature
    // dimensions shrink the cache — a selector-visible effect.
    const std::size_t row_bytes = dim * sizeof(Float);
    const std::size_t staged_cap =
        row_bytes ? opt.device.sharedMemPerSm / 2 / row_bytes : 0;

    // Numeric path: reference-order per-row double accumulation; the
    // tile/staging structure is an accounting concern only, so the
    // functional result is bitwise-identical to spmmReference at any
    // MAXK_THREADS.
    spmmReference(a, x, y);

    gpusim::KernelContext ctx(opt.device, "spmm_row_caching",
                              opt.simulateCaches);

    // Same pre-launch zeroing contract as the nnz-balanced variant:
    // empty rows and tile-straddling rows get no plain per-tile store.
    ctx.beginPhase("zero-fill");
    for (NodeId r = 0; r < a.numNodes(); ++r)
        if (a.degree(r) == 0 || split[r])
            ctx.globalWrite(r, y.row(r), dim * sizeof(Float));

    ctx.beginPhase("compute");
    // Tile-parallel traffic walk; chunks hold whole tiles, so the
    // aggregate charges and shard replay order are thread-invariant.
    const auto chunks =
        splitRange(0, tiles.size(), 8, resolveThreads(opt.threads));
    gpusim::runSharded(ctx, chunks, [&](auto &dev, std::uint32_t,
                                        IndexRange range) {
        // Tile-stamped scratch: seen/staged marks survive across tiles
        // without a per-tile clear (stamp = tile index + 1).
        std::vector<std::uint32_t> seen(a.numNodes(), 0);
        std::vector<std::uint32_t> staged(a.numNodes(), 0);
        for (std::size_t u = range.begin; u < range.end; ++u) {
            const kernels::EgUnit &tile = tiles[u];
            const std::uint64_t warp = u + 1;
            const std::uint32_t stamp = static_cast<std::uint32_t>(u + 1);
            const EdgeGroup &first = groups[tile.egBegin];
            const EdgeGroup &last = groups[tile.egEnd - 1];
            const EdgeId e0 = first.begin, e1 = last.end;

            // Block-coalesced metadata: one contiguous streaming request
            // per array per tile (as in the nnz-balanced schedule).
            dev.globalReadStreaming(
                warp, &a.rowPtr()[first.row],
                (last.row - first.row + 2) * sizeof(EdgeId));
            dev.globalReadStreaming(warp, &a.values()[e0],
                                    (e1 - e0) * sizeof(Float));
            dev.globalReadStreaming(warp, &a.colIdx()[e0],
                                    (e1 - e0) * sizeof(NodeId));
            // Stage/consume barrier bookkeeping for the block.
            dev.sharedOps(64, 0);

            std::size_t staged_count = 0;
            for (EdgeId e = e0; e < e1; ++e) {
                const NodeId j = a.colIdx()[e];
                if (seen[j] != stamp) {
                    seen[j] = stamp;
                    if (staged_count < staged_cap) {
                        // First touch within the tile: fetch the dense
                        // row once and pin it in shared memory.
                        staged[j] = stamp;
                        ++staged_count;
                        dev.globalRead(warp, x.row(j),
                                       dim * sizeof(Float));
                        dev.sharedOps(dim / 4, dim * sizeof(Float));
                    }
                }
                if (staged[j] == stamp) {
                    // Served from the staged copy: shared traffic only.
                    dev.sharedOps(dim / 4, dim * sizeof(Float));
                } else {
                    // Cache full (or never staged): direct global read.
                    dev.globalRead(warp, x.row(j), dim * sizeof(Float));
                }
                dev.flops(2 * dim);
            }

            // Write-back mirrors the nnz-balanced variant: plain store
            // per tile-local row, atomic merge for straddling rows.
            for (std::size_t gi = tile.egBegin; gi < tile.egEnd; ++gi) {
                const EdgeGroup &eg = groups[gi];
                const bool row_ends = gi + 1 == tile.egEnd ||
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
    return ctx.finish(kRowCachingEfficiency);
}

} // namespace maxk
