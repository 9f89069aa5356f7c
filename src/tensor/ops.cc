#include "tensor/ops.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.hh"

namespace maxk
{

namespace
{

/** Four fp32 lanes: one SSE2 register on baseline x86-64. */
typedef Float Vec4 __attribute__((vector_size(16)));

constexpr std::size_t kMr = 4;   //!< C rows per register tile
constexpr std::size_t kNr = 8;   //!< C columns per tile (two Vec4)
constexpr std::size_t kKc = 256; //!< depth of one packed B panel

/** Read-only strided operand: element (r, c) at p[r * rs + c * cs]. */
struct View
{
    const Float *p;
    std::size_t rs, cs;

    Float at(std::size_t r, std::size_t c) const { return p[r * rs + c * cs]; }
    View shifted(std::size_t r, std::size_t c) const
    {
        return {p + r * rs + c * cs, rs, cs};
    }
};

Vec4
load4(const Float *p)
{
    Vec4 v{};
    std::memcpy(&v, p, sizeof v);
    return v;
}

void
store4(Float *p, Vec4 v)
{
    std::memcpy(p, &v, sizeof v);
}

/**
 * The micro-kernel: C[0, R) x [0, kNr) += A[0, R) x [0, kc) * panel,
 * where the panel holds kc rows of kNr contiguous B values. The R x kNr
 * outputs stay in registers for the whole depth; each one folds
 * c = c + a * b in ascending p, a multiply then an add per term.
 */
template <std::size_t R>
void
microTile(View a, std::size_t kc, const Float *panel, Float *c,
          std::size_t ldc)
{
    Vec4 lo[R], hi[R];
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
        lo[r] = load4(c + r * ldc);
        hi[r] = load4(c + r * ldc + 4);
    }
    for (std::size_t p = 0; p < kc; ++p) {
        const Vec4 b0 = load4(panel + p * kNr);
        const Vec4 b1 = load4(panel + p * kNr + 4);
#pragma GCC unroll 4
        for (std::size_t r = 0; r < R; ++r) {
            const Float s = a.at(r, p);
            const Vec4 av = {s, s, s, s};
            lo[r] = lo[r] + av * b0;
            hi[r] = hi[r] + av * b1;
        }
    }
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
        store4(c + r * ldc, lo[r]);
        store4(c + r * ldc + 4, hi[r]);
    }
}

/**
 * microTile on the first `cols` (<= kNr) columns of C. A partial tile
 * runs on a zero-padded copy, so the tail keeps the vector kernel and
 * its fold; the padding lanes are discarded.
 */
template <std::size_t R>
void
tile(View a, std::size_t kc, const Float *panel, Float *c, std::size_t ldc,
     std::size_t cols)
{
    if (cols == kNr) {
        microTile<R>(a, kc, panel, c, ldc);
        return;
    }
    Float part[R * kNr] = {};
    for (std::size_t r = 0; r < R; ++r)
        std::copy_n(c + r * ldc, cols, part + r * kNr);
    microTile<R>(a, kc, panel, part, kNr);
    for (std::size_t r = 0; r < R; ++r)
        std::copy_n(part + r * kNr, cols, c + r * ldc);
}

/**
 * C (m x n, row stride n) += A (m x k) * B (k x n) for any strides of A
 * and B. Per k-block of depth kKc and per kNr-column block, B is packed
 * into an 8 KiB stack panel (zero-padded past column n), then every
 * row tile of C runs the micro-kernel over it. The pack is the only
 * place a transposed B differs from a plain one; it allocates nothing
 * and is private to the calling thread.
 */
void
gemmStrided(std::size_t m, std::size_t n, std::size_t k, View a, View b,
            Float *c)
{
    if (m == 0)
        return;
    alignas(16) Float panel[kKc * kNr];
    for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
        const std::size_t kc = std::min(kKc, k - p0);
        const View ak = a.shifted(0, p0);
        for (std::size_t j0 = 0; j0 < n; j0 += kNr) {
            const std::size_t cols = std::min(kNr, n - j0);
            for (std::size_t p = 0; p < kc; ++p)
                for (std::size_t j = 0; j < kNr; ++j)
                    panel[p * kNr + j] =
                        j < cols ? b.at(p0 + p, j0 + j) : 0.0f;
            std::size_t i = 0;
            for (; i + kMr <= m; i += kMr)
                tile<kMr>(ak.shifted(i, 0), kc, panel, c + i * n + j0, n,
                          cols);
            for (; i < m; ++i)
                tile<1>(ak.shifted(i, 0), kc, panel, c + i * n + j0, n,
                        cols);
        }
    }
}

} // namespace

void
gemm(const Matrix &a, const Matrix &b, Matrix &c)
{
    c.resize(a.rows(), b.cols());
    gemmAccum(a, b, c);
}

void
gemmAccum(const Matrix &a, const Matrix &b, Matrix &c)
{
    checkInvariant(a.cols() == b.rows(), "gemm: inner dimension mismatch");
    checkInvariant(c.rows() == a.rows() && c.cols() == b.cols(),
                   "gemm: output shape mismatch");
    gemmStrided(a.rows(), b.cols(), a.cols(), {a.data(), a.cols(), 1},
                {b.data(), b.cols(), 1}, c.data());
}

void
gemmTransA(const Matrix &a, const Matrix &b, Matrix &c)
{
    checkInvariant(a.rows() == b.rows(), "gemmTransA: row count mismatch");
    c.resize(a.cols(), b.cols());
    gemmStrided(a.cols(), b.cols(), a.rows(), {a.data(), 1, a.cols()},
                {b.data(), b.cols(), 1}, c.data());
}

void
gemmTransB(const Matrix &a, const Matrix &b, Matrix &c)
{
    checkInvariant(a.cols() == b.cols(), "gemmTransB: col count mismatch");
    c.resize(a.rows(), b.rows());
    gemmStrided(a.rows(), b.rows(), a.cols(), {a.data(), a.cols(), 1},
                {b.data(), 1, b.cols()}, c.data());
}

void
transpose(const Matrix &in, Matrix &out)
{
    out.resize(in.cols(), in.rows());
    for (std::size_t i = 0; i < in.rows(); ++i)
        for (std::size_t j = 0; j < in.cols(); ++j)
            out.at(j, i) = in.at(i, j);
}

void
addInPlace(Matrix &dst, const Matrix &src)
{
    checkInvariant(dst.rows() == src.rows() && dst.cols() == src.cols(),
                   "addInPlace: shape mismatch");
    Float *d = dst.data();
    const Float *s = src.data();
    for (std::size_t i = 0; i < dst.size(); ++i)
        d[i] += s[i];
}

void
axpy(Matrix &dst, Float alpha, const Matrix &src)
{
    checkInvariant(dst.size() == src.size(), "axpy: size mismatch");
    Float *d = dst.data();
    const Float *s = src.data();
    for (std::size_t i = 0; i < dst.size(); ++i)
        d[i] += alpha * s[i];
}

void
scaleInPlace(Matrix &dst, Float alpha)
{
    Float *d = dst.data();
    for (std::size_t i = 0; i < dst.size(); ++i)
        d[i] *= alpha;
}

void
subtract(const Matrix &a, const Matrix &b, Matrix &out)
{
    checkInvariant(a.rows() == b.rows() && a.cols() == b.cols(),
                   "subtract: shape mismatch");
    out.resize(a.rows(), a.cols());
    const Float *pa = a.data();
    const Float *pb = b.data();
    Float *po = out.data();
    for (std::size_t i = 0; i < a.size(); ++i)
        po[i] = pa[i] - pb[i];
}

void
addRowVector(Matrix &dst, const Matrix &bias)
{
    checkInvariant(bias.size() == dst.cols(),
                   "addRowVector: bias length mismatch");
    const Float *b = bias.data();
    for (std::size_t i = 0; i < dst.rows(); ++i) {
        Float *row = dst.row(i);
        for (std::size_t j = 0; j < dst.cols(); ++j)
            row[j] += b[j];
    }
}

void
columnSums(const Matrix &in, Matrix &out)
{
    out.resize(1, in.cols());
    Float *o = out.data();
    for (std::size_t i = 0; i < in.rows(); ++i) {
        const Float *row = in.row(i);
        for (std::size_t j = 0; j < in.cols(); ++j)
            o[j] += row[j];
    }
}

void
hadamard(const Matrix &a, const Matrix &b, Matrix &out)
{
    checkInvariant(a.rows() == b.rows() && a.cols() == b.cols(),
                   "hadamard: shape mismatch");
    out.resize(a.rows(), a.cols());
    const Float *pa = a.data();
    const Float *pb = b.data();
    Float *po = out.data();
    for (std::size_t i = 0; i < a.size(); ++i)
        po[i] = pa[i] * pb[i];
}

void
reluForward(const Matrix &in, Matrix &out)
{
    out.ensureShape(in.rows(), in.cols());
    const Float *pi = in.data();
    Float *po = out.data();
    for (std::size_t i = 0; i < in.size(); ++i)
        po[i] = pi[i] > 0.0f ? pi[i] : 0.0f;
}

void
reluBackward(const Matrix &input, const Matrix &gradOut, Matrix &gradIn)
{
    checkInvariant(input.size() == gradOut.size(),
                   "reluBackward: shape mismatch");
    gradIn.ensureShape(input.rows(), input.cols());
    const Float *pi = input.data();
    const Float *pg = gradOut.data();
    Float *po = gradIn.data();
    for (std::size_t i = 0; i < input.size(); ++i)
        po[i] = pi[i] > 0.0f ? pg[i] : 0.0f;
}

void
rowSoftmax(const Matrix &in, Matrix &out)
{
    out.resize(in.rows(), in.cols());
    for (std::size_t i = 0; i < in.rows(); ++i) {
        const Float *row = in.row(i);
        Float *orow = out.row(i);
        Float mx = row[0];
        for (std::size_t j = 1; j < in.cols(); ++j)
            mx = std::max(mx, row[j]);
        double denom = 0.0;
        for (std::size_t j = 0; j < in.cols(); ++j) {
            orow[j] = std::exp(row[j] - mx);
            denom += orow[j];
        }
        const Float inv = static_cast<Float>(1.0 / denom);
        for (std::size_t j = 0; j < in.cols(); ++j)
            orow[j] *= inv;
    }
}

void
sigmoid(const Matrix &in, Matrix &out)
{
    out.resize(in.rows(), in.cols());
    const Float *pi = in.data();
    Float *po = out.data();
    for (std::size_t i = 0; i < in.size(); ++i)
        po[i] = 1.0f / (1.0f + std::exp(-pi[i]));
}

} // namespace maxk
