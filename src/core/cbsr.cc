#include "core/cbsr.hh"

#include "common/logging.hh"
#include "tensor/alloc_probe.hh"

namespace maxk
{

namespace
{
constexpr allocprobe::Kind kKind = allocprobe::Kind::Cbsr;
} // namespace

CbsrMatrix::CbsrMatrix(NodeId rows, std::uint32_t dim_k,
                       std::uint32_t dim_origin)
    : rows_(rows),
      dimK_(dim_k),
      dimOrigin_(dim_origin),
      narrowIndex_(indexBytesFor(dim_origin) == 1)
{
    checkInvariant(dim_k >= 1 && dim_k <= dim_origin,
                   "CBSR: need 1 <= dimK <= dimOrigin");
    checkInvariant(dim_origin <= 65536, "CBSR: dimOrigin exceeds uint16");
    allocprobe::tracked(spData_, kKind, [&] {
        spData_.assign(std::size_t(rows) * dim_k, 0.0f);
    });
    if (narrowIndex_)
        allocprobe::tracked(spIndex8_, kKind, [&] {
            spIndex8_.assign(std::size_t(rows) * dim_k, 0);
        });
    else
        allocprobe::tracked(spIndex16_, kKind, [&] {
            spIndex16_.assign(std::size_t(rows) * dim_k, 0);
        });
}

CbsrMatrix::CbsrMatrix(const CbsrMatrix &other)
    : rows_(other.rows_),
      dimK_(other.dimK_),
      dimOrigin_(other.dimOrigin_),
      narrowIndex_(other.narrowIndex_),
      spData_(other.spData_),
      spIndex8_(other.spIndex8_),
      spIndex16_(other.spIndex16_)
{
    allocprobe::acquired(spData_, kKind);
    allocprobe::acquired(spIndex8_, kKind);
    allocprobe::acquired(spIndex16_, kKind);
}

CbsrMatrix &
CbsrMatrix::operator=(const CbsrMatrix &other)
{
    if (this != &other) {
        rows_ = other.rows_;
        dimK_ = other.dimK_;
        dimOrigin_ = other.dimOrigin_;
        narrowIndex_ = other.narrowIndex_;
        allocprobe::tracked(spData_, kKind,
                            [&] { spData_ = other.spData_; });
        allocprobe::tracked(spIndex8_, kKind,
                            [&] { spIndex8_ = other.spIndex8_; });
        allocprobe::tracked(spIndex16_, kKind,
                            [&] { spIndex16_ = other.spIndex16_; });
    }
    return *this;
}

CbsrMatrix &
CbsrMatrix::operator=(CbsrMatrix &&other) noexcept
{
    if (this != &other) {
        allocprobe::released(spData_);
        allocprobe::released(spIndex8_);
        allocprobe::released(spIndex16_);
        spData_ = std::move(other.spData_);
        spIndex8_ = std::move(other.spIndex8_);
        spIndex16_ = std::move(other.spIndex16_);
        rows_ = other.rows_;
        dimK_ = other.dimK_;
        dimOrigin_ = other.dimOrigin_;
        narrowIndex_ = other.narrowIndex_;
        other.rows_ = 0;
        other.dimK_ = 0;
        other.dimOrigin_ = 0;
    }
    return *this;
}

CbsrMatrix::~CbsrMatrix()
{
    allocprobe::released(spData_);
    allocprobe::released(spIndex8_);
    allocprobe::released(spIndex16_);
}

Bytes
CbsrMatrix::storageBytes() const
{
    return spData_.size() * sizeof(Float) +
           std::size_t(rows_) * dimK_ * indexBytes();
}

void
CbsrMatrix::decompress(Matrix &dense) const
{
    dense.resize(rows_, dimOrigin_);
    for (NodeId r = 0; r < rows_; ++r) {
        const Float *data = dataRow(r);
        Float *out = dense.row(r);
        for (std::uint32_t kk = 0; kk < dimK_; ++kk)
            out[indexAt(r, kk)] = data[kk];
    }
}

void
CbsrMatrix::zeroData()
{
    std::fill(spData_.begin(), spData_.end(), 0.0f);
}

void
CbsrMatrix::reshape(NodeId rows, std::uint32_t dim_k,
                    std::uint32_t dim_origin)
{
    checkInvariant(dim_k >= 1 && dim_k <= dim_origin,
                   "CBSR: need 1 <= dimK <= dimOrigin");
    checkInvariant(dim_origin <= 65536, "CBSR: dimOrigin exceeds uint16");
    rows_ = rows;
    dimK_ = dim_k;
    dimOrigin_ = dim_origin;
    narrowIndex_ = indexBytesFor(dim_origin) == 1;
    allocprobe::tracked(spData_, kKind, [&] {
        spData_.assign(std::size_t(rows) * dim_k, 0.0f);
    });
    if (narrowIndex_) {
        allocprobe::tracked(spIndex8_, kKind, [&] {
            spIndex8_.assign(std::size_t(rows) * dim_k, 0);
        });
        spIndex16_.clear();
    } else {
        allocprobe::tracked(spIndex16_, kKind, [&] {
            spIndex16_.assign(std::size_t(rows) * dim_k, 0);
        });
        spIndex8_.clear();
    }
}

void
CbsrMatrix::ensureShape(NodeId rows, std::uint32_t dim_k,
                        std::uint32_t dim_origin)
{
    checkInvariant(dim_k >= 1 && dim_k <= dim_origin,
                   "CBSR: need 1 <= dimK <= dimOrigin");
    checkInvariant(dim_origin <= 65536, "CBSR: dimOrigin exceeds uint16");
    rows_ = rows;
    dimK_ = dim_k;
    dimOrigin_ = dim_origin;
    narrowIndex_ = indexBytesFor(dim_origin) == 1;
    const std::size_t n = std::size_t(rows) * dim_k;
    if (spData_.size() != n)
        allocprobe::tracked(spData_, kKind, [&] { spData_.resize(n); });
    if (narrowIndex_) {
        if (spIndex8_.size() != n)
            allocprobe::tracked(spIndex8_, kKind,
                                [&] { spIndex8_.resize(n); });
        spIndex16_.clear();
    } else {
        if (spIndex16_.size() != n)
            allocprobe::tracked(spIndex16_, kKind,
                                [&] { spIndex16_.resize(n); });
        spIndex8_.clear();
    }
}

bool
CbsrMatrix::validate() const
{
    for (NodeId r = 0; r < rows_; ++r) {
        for (std::uint32_t kk = 0; kk < dimK_; ++kk) {
            const std::uint32_t col = indexAt(r, kk);
            if (col >= dimOrigin_)
                return false;
            if (kk > 0 && indexAt(r, kk - 1) >= col)
                return false;
        }
    }
    return true;
}

void
CbsrMatrix::adoptPattern(const CbsrMatrix &other)
{
    rows_ = other.rows_;
    dimK_ = other.dimK_;
    dimOrigin_ = other.dimOrigin_;
    narrowIndex_ = other.narrowIndex_;
    allocprobe::tracked(spIndex8_, kKind,
                        [&] { spIndex8_ = other.spIndex8_; });
    allocprobe::tracked(spIndex16_, kKind,
                        [&] { spIndex16_ = other.spIndex16_; });
    allocprobe::tracked(spData_, kKind, [&] {
        spData_.assign(std::size_t(rows_) * dimK_, 0.0f);
    });
}

} // namespace maxk
