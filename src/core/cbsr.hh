/**
 * @file
 * Compressed Balanced Sparse Row (CBSR) format — contribution (a) of the
 * paper (Sec. 3.2).
 *
 * After the MaxK nonlinearity every node embedding row holds exactly k
 * surviving values, so the sparsified feature matrix compresses into two
 * dense N x k arrays stored in adjacent memory blocks:
 *
 *   sp_data  — the surviving fp32 values,
 *   sp_index — their column positions within the original dim_origin row.
 *
 * The fixed row length is what makes the format "balanced": every warp
 * fetches the same number of bytes per row (perfect coalescing, no
 * row-length divergence). When dim_origin <= 256 the indices fit uint8,
 * which is where Sec. 4.3's 5-bytes-per-element traffic figure comes
 * from; wider embeddings fall back to uint16.
 */

#ifndef MAXK_CORE_CBSR_HH
#define MAXK_CORE_CBSR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "tensor/matrix.hh"

namespace maxk
{

/** CBSR-compressed sparse feature matrix (N rows, exactly dimK nnz/row). */
class CbsrMatrix
{
  public:
    CbsrMatrix() = default;

    /**
     * Allocate an N x dimK CBSR container for features whose dense width
     * is dimOrigin. Contents start zeroed.
     */
    CbsrMatrix(NodeId rows, std::uint32_t dim_k, std::uint32_t dim_origin);

    // Storage changes are reported to AllocProbe (tensor/alloc_probe.hh)
    // so tests can assert the training hot loop is allocation-free;
    // hence the explicit copy/move/destroy set.
    CbsrMatrix(const CbsrMatrix &other);
    CbsrMatrix(CbsrMatrix &&other) noexcept = default;
    CbsrMatrix &operator=(const CbsrMatrix &other);
    CbsrMatrix &operator=(CbsrMatrix &&other) noexcept;
    ~CbsrMatrix();

    NodeId rows() const { return rows_; }
    std::uint32_t dimK() const { return dimK_; }
    std::uint32_t dimOrigin() const { return dimOrigin_; }

    /** Bytes a stored index element occupies on the wire (1 or 2). */
    std::uint32_t indexBytes() const { return narrowIndex_ ? 1 : 2; }

    /** indexBytes() of any CBSR matrix with dense width dim_origin:
     *  uint8 indices when the width fits, uint16 otherwise. */
    static std::uint32_t
    indexBytesFor(std::uint32_t dim_origin)
    {
        return dim_origin <= 256 ? 1 : 2;
    }

    Float *dataRow(NodeId r) { return spData_.data() + size_t(r) * dimK_; }
    const Float *dataRow(NodeId r) const
    {
        return spData_.data() + size_t(r) * dimK_;
    }

    /** Column index of the kk-th surviving element of row r. */
    std::uint32_t
    indexAt(NodeId r, std::uint32_t kk) const
    {
        const std::size_t pos = std::size_t(r) * dimK_ + kk;
        return narrowIndex_ ? spIndex8_[pos] : spIndex16_[pos];
    }

    /** Set the column index of element (r, kk). */
    void
    setIndex(NodeId r, std::uint32_t kk, std::uint32_t column)
    {
        const std::size_t pos = std::size_t(r) * dimK_ + kk;
        if (narrowIndex_)
            spIndex8_[pos] = static_cast<std::uint8_t>(column);
        else
            spIndex16_[pos] = static_cast<std::uint16_t>(column);
    }

    /** Address of row r's index segment (for traffic accounting). */
    const void *
    indexRowAddr(NodeId r) const
    {
        const std::size_t pos = std::size_t(r) * dimK_;
        return narrowIndex_
                   ? static_cast<const void *>(spIndex8_.data() + pos)
                   : static_cast<const void *>(spIndex16_.data() + pos);
    }

    /** Bytes occupied by one row's index segment. */
    Bytes indexRowBytes() const { return Bytes(dimK_) * indexBytes(); }

    /** Bytes occupied by one row's data segment. */
    Bytes dataRowBytes() const { return Bytes(dimK_) * sizeof(Float); }

    /** Total storage footprint (sp_data + sp_index). */
    Bytes storageBytes() const;

    /** Expand to a dense N x dimOrigin matrix (zeros elsewhere). */
    void decompress(Matrix &dense) const;

    /** Zero the data segment, keeping the index pattern. */
    void zeroData();

    /**
     * Resize to the given shape, reusing the existing storage when the
     * element counts match (unlike assigning a fresh CbsrMatrix, the
     * buffers keep their addresses — which also keeps simulated traffic
     * stats reproducible across repeated kernel launches). Contents are
     * zeroed.
     */
    void reshape(NodeId rows, std::uint32_t dim_k,
                 std::uint32_t dim_origin);

    /**
     * Adopt the given shape, reusing the existing storage whenever the
     * element counts already match — guaranteed no-op in that case (no
     * reallocation, no zero-fill). Contents are unspecified after a
     * shape change; callers must fully overwrite every data and index
     * slot (the MaxK compress kernels do).
     */
    void ensureShape(NodeId rows, std::uint32_t dim_k,
                     std::uint32_t dim_origin);

    /**
     * Structural validity: every index < dimOrigin and strictly
     * ascending within each row (the MaxK kernel emits them in column
     * order, Fig. 5).
     */
    bool validate() const;

    /** Share another matrix's sparsity pattern (copies the indices). The
     *  data segment is zeroed. Used by the backward pass, which inherits
     *  sp_index from the forward activation. */
    void adoptPattern(const CbsrMatrix &other);

  private:
    NodeId rows_ = 0;
    std::uint32_t dimK_ = 0;
    std::uint32_t dimOrigin_ = 0;
    bool narrowIndex_ = true;
    std::vector<Float> spData_;
    std::vector<std::uint8_t> spIndex8_;
    std::vector<std::uint16_t> spIndex16_;
};

} // namespace maxk

#endif // MAXK_CORE_CBSR_HH
