#include "core/dense_maxk.hh"

#include "common/logging.hh"
#include "gpusim/context.hh"

namespace maxk
{

gpusim::KernelStats
cbsrGemm(const CbsrMatrix &h, const Matrix &w, Matrix &y,
         const SimOptions &opt)
{
    checkInvariant(w.rows() == h.dimOrigin(),
                   "cbsrGemm: weight row count != dimOrigin");
    const std::uint32_t dim_k = h.dimK();
    const std::size_t out = w.cols();
    y.resize(h.rows(), out);
    y.setZero();

    gpusim::KernelContext ctx(opt.device, "cbsr_gemm",
                              opt.simulateCaches);
    ctx.beginPhase("compute");

    for (NodeId i = 0; i < h.rows(); ++i) {
        const std::uint64_t warp = i;
        ctx.globalRead(warp, h.dataRow(i), h.dataRowBytes());
        ctx.globalRead(warp, h.indexRowAddr(i), h.indexRowBytes());
        const Float *data = h.dataRow(i);
        Float *yr = y.row(i);
        for (std::uint32_t kk = 0; kk < dim_k; ++kk) {
            const Float *wr = w.row(h.indexAt(i, kk));
            // Only k of the d_ff weight rows are touched per sample.
            ctx.globalRead(warp, wr, out * sizeof(Float));
            ctx.flops(2ull * out);
            const Float v = data[kk];
            for (std::size_t c = 0; c < out; ++c)
                yr[c] += v * wr[c];
        }
        ctx.globalWrite(warp, yr, out * sizeof(Float));
    }
    return ctx.finish();
}

gpusim::KernelStats
cbsrGemmBackwardData(const CbsrMatrix &h, const Matrix &w,
                     const Matrix &dy, CbsrMatrix &dh,
                     const SimOptions &opt)
{
    checkInvariant(dy.rows() == h.rows(),
                   "cbsrGemmBackwardData: sample count mismatch");
    checkInvariant(dh.rows() == h.rows() && dh.dimK() == h.dimK(),
                   "cbsrGemmBackwardData: pattern not adopted");
    const std::uint32_t dim_k = h.dimK();
    const std::size_t out = w.cols();
    dh.zeroData();

    gpusim::KernelContext ctx(opt.device, "cbsr_gemm_bwd_data",
                              opt.simulateCaches);
    ctx.beginPhase("compute");

    for (NodeId i = 0; i < h.rows(); ++i) {
        const std::uint64_t warp = i;
        ctx.globalRead(warp, dy.row(i), out * sizeof(Float));
        ctx.globalRead(warp, h.indexRowAddr(i), h.indexRowBytes());
        const Float *gy = dy.row(i);
        Float *gd = dh.dataRow(i);
        for (std::uint32_t kk = 0; kk < dim_k; ++kk) {
            const Float *wr = w.row(h.indexAt(i, kk));
            ctx.globalRead(warp, wr, out * sizeof(Float));
            ctx.flops(2ull * out);
            double acc = 0.0;
            for (std::size_t c = 0; c < out; ++c)
                acc += static_cast<double>(gy[c]) * wr[c];
            gd[kk] = static_cast<Float>(acc);
        }
        ctx.globalWrite(warp, gd, dh.dataRowBytes());
    }
    return ctx.finish();
}

gpusim::KernelStats
cbsrGemmBackwardWeight(const CbsrMatrix &h, const Matrix &dy, Matrix &dw,
                       const SimOptions &opt)
{
    checkInvariant(dy.rows() == h.rows(),
                   "cbsrGemmBackwardWeight: sample count mismatch");
    const std::uint32_t dim_k = h.dimK();
    const std::size_t out = dy.cols();
    if (dw.rows() != h.dimOrigin() || dw.cols() != out)
        dw.resize(h.dimOrigin(), out);

    gpusim::KernelContext ctx(opt.device, "cbsr_gemm_bwd_weight",
                              opt.simulateCaches);
    ctx.beginPhase("compute+accumulate");

    for (NodeId i = 0; i < h.rows(); ++i) {
        const std::uint64_t warp = i;
        ctx.globalRead(warp, h.dataRow(i), h.dataRowBytes());
        ctx.globalRead(warp, h.indexRowAddr(i), h.indexRowBytes());
        ctx.globalRead(warp, dy.row(i), out * sizeof(Float));
        const Float *data = h.dataRow(i);
        const Float *gy = dy.row(i);
        for (std::uint32_t kk = 0; kk < dim_k; ++kk) {
            Float *wr = dw.row(h.indexAt(i, kk));
            const Float v = data[kk];
            ctx.flops(2ull * out);
            for (std::size_t c = 0; c < out; ++c)
                wr[c] += v * gy[c];
            // Different samples may touch the same weight row:
            // atomic accumulation with contention issue cost.
            ctx.sharedOps(out, 0);
            ctx.globalAtomicAccum(warp, wr, out * sizeof(Float));
        }
    }
    return ctx.finish();
}

} // namespace maxk
