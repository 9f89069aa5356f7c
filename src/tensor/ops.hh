/**
 * @file
 * Dense linear-algebra kernels on Matrix.
 *
 * These back the Linear layers of the GNN models (the X*W stage of Fig. 3)
 * and all autograd math.
 *
 * The four GEMMs share one register-tiled micro-kernel: a 4 x 8 tile of
 * C held in eight SSE2 registers (GCC vector types, baseline x86-64,
 * no FMA) while it runs over a packed B panel of up to 256 rows x 8
 * columns. gemmTransA reads A^T through strides; gemmTransB packs B^T
 * into the panel. The panel is an 8 KiB stack buffer, so the GEMMs
 * allocate nothing and are safe to call from concurrent threads. Row,
 * column and depth remainders run the same kernel (on a zero-padded
 * tile for a partial column block).
 *
 * Fold contract: every output is c = c + a_p * b_p over p = 0, 1, ...,
 * k-1 in ascending order, each term one fp32 multiply and then one add
 * (never fused: the build sets -ffp-contract=off), starting from the
 * prior C for gemmAccum and from +0 otherwise. So results do not depend
 * on the tiling, and the dense and CBSR linear paths agree bitwise.
 * Zero entries of A are not skipped: a 0 opposite an inf/NaN in B gives
 * NaN, and gemmAccum onto a -0 in C can yield +0. Otherwise a ±0
 * product leaves the accumulator unchanged, so skipping zeros (as the
 * CBSR kernels do) gives the same bits.
 */

#ifndef MAXK_TENSOR_OPS_HH
#define MAXK_TENSOR_OPS_HH

#include "tensor/matrix.hh"

namespace maxk
{

/** C = A * B. A: m x k, B: k x n, C resized to m x n. */
void gemm(const Matrix &a, const Matrix &b, Matrix &c);

/** C += A * B (C must already be m x n). */
void gemmAccum(const Matrix &a, const Matrix &b, Matrix &c);

/** C = A^T * B. A: k x m, B: k x n, C resized to m x n. */
void gemmTransA(const Matrix &a, const Matrix &b, Matrix &c);

/** C = A * B^T. A: m x k, B: n x k, C resized to m x n. */
void gemmTransB(const Matrix &a, const Matrix &b, Matrix &c);

/** out = transpose(in). */
void transpose(const Matrix &in, Matrix &out);

/** dst += src (same shape). */
void addInPlace(Matrix &dst, const Matrix &src);

/** dst += alpha * src (same shape). */
void axpy(Matrix &dst, Float alpha, const Matrix &src);

/** dst *= alpha. */
void scaleInPlace(Matrix &dst, Float alpha);

/** out = a - b (same shape). */
void subtract(const Matrix &a, const Matrix &b, Matrix &out);

/** Add a row vector (1 x n or length-n matrix) to every row of dst. */
void addRowVector(Matrix &dst, const Matrix &bias);

/** Column-wise sum of in -> out (1 x n). Used for bias gradients. */
void columnSums(const Matrix &in, Matrix &out);

/** Element-wise product: dst = a ⊙ b. */
void hadamard(const Matrix &a, const Matrix &b, Matrix &out);

/** Element-wise ReLU forward: out = max(in, 0). */
void reluForward(const Matrix &in, Matrix &out);

/**
 * Element-wise ReLU backward: gradIn = gradOut where forward input was
 * positive, else 0.
 */
void reluBackward(const Matrix &input, const Matrix &gradOut,
                  Matrix &gradIn);

/** Row-wise softmax (numerically stabilised). */
void rowSoftmax(const Matrix &in, Matrix &out);

/** Element-wise sigmoid. */
void sigmoid(const Matrix &in, Matrix &out);

} // namespace maxk

#endif // MAXK_TENSOR_OPS_HH
