/**
 * @file
 * Halo planning and exchange for partition-parallel training.
 *
 * A HaloPlan is compiled once from a Partition + CsrGraph. Each shard
 * (rank) owns its partition's vertices ("local", ext ids 0..numLocal)
 * and materialises one extra "halo" row per remote vertex that any
 * local row reads (ext ids numLocal..numExt, ascending global order).
 * The shard's induced subgraph is extended accordingly: local rows keep
 * *all* their edges — remapped to local/halo ids — and halo rows are
 * empty, so local aggregation outputs are exactly the single-device
 * values once the halo rows hold the owners' activations. Because a
 * vertex adjacent to three remote parts appears in three halo sets, the
 * plan is replica-exact: totalReplicas() equals
 * nn::boundaryReplicaCount(), the count the profileDistributedEpoch
 * oracle charges.
 *
 * The per-layer exchange is a flat gather → send → scatter: sendRows
 * (per destination) gather local rows into one buffer per peer,
 * recvRows (per source) scatter received rows into the halo slots.
 * MaxK layers ship CBSR rows — k fp32 values plus k narrow indices per
 * row, the paper's ~(4+idx)*k bytes per boundary node instead of 4*dim
 * (Sec. 1) — and the final/ReLU layers ship dense fp32 rows. The
 * backward pass runs the same lists in reverse: partial gradients
 * accumulated into halo rows are shipped back to their owners, which
 * fold them into their local rows in rank order.
 */

#ifndef MAXK_DIST_HALO_HH
#define MAXK_DIST_HALO_HH

#include <cstdint>
#include <vector>

#include "core/cbsr.hh"
#include "dist/comm.hh"
#include "graph/csr.hh"
#include "graph/partition.hh"
#include "tensor/matrix.hh"

namespace maxk::dist
{

/** One rank's compiled shard: extended subgraph + exchange lists. */
struct HaloShard
{
    std::uint32_t rank = 0;
    std::vector<NodeId> localGlobal;  //!< global ids of local rows (asc)
    std::vector<NodeId> haloGlobal;   //!< global ids of halo rows (asc)

    /**
     * Extended subgraph: numExt() nodes; rows [0, numLocal()) carry the
     * full (remapped) adjacency of the local vertices with the global
     * graph's edge values, rows [numLocal(), numExt()) are empty. The
     * transpose cache is pre-built so the scatter-shaped backward never
     * builds it from inside a rank thread.
     */
    CsrGraph extGraph;

    /** sendRows[d]: local row ids shipped to rank d, ascending global
     *  order — matches shard d's recvRows[this rank] slot for slot. */
    std::vector<std::vector<NodeId>> sendRows;

    /** recvRows[s]: halo slot (ext row id) filled by rank s, ascending
     *  global order of the underlying vertices. */
    std::vector<std::vector<NodeId>> recvRows;

    NodeId numLocal() const
    {
        return static_cast<NodeId>(localGlobal.size());
    }
    NodeId numExt() const
    {
        return static_cast<NodeId>(localGlobal.size() +
                                   haloGlobal.size());
    }
};

/** Compiled halo-exchange plan for every rank of a partition. */
struct HaloPlan
{
    std::uint32_t numParts = 0;
    std::vector<HaloShard> shards;

    /** Σ over shards of their halo row count — the per-destination
     *  replica count the exchange model charges. */
    std::uint64_t totalReplicas() const;

    /**
     * Compile the plan. `g` must already carry the edge values the
     * model trains with (setAggregatorWeights on the *global* graph —
     * boundary rows must aggregate with global degrees, exactly like
     * the single-device run).
     */
    static HaloPlan build(const CsrGraph &g, const Partition &p);
};

/**
 * Per-rank halo exchange engine with persistent send/receive buffers
 * (steady-state epochs reuse their capacity; nothing here allocates
 * Matrix/CbsrMatrix storage). All methods are collectives on the Halo
 * channel: every rank must call the same method with the same layer
 * shape.
 */
class HaloExchange
{
  public:
    explicit HaloExchange(const HaloShard &shard) : shard_(shard) {}

    /** Fill m's halo rows with the owners' rows (forward, dense). */
    void exchangeDense(Communicator &comm, Matrix &m);

    /** Fill m's halo rows — values and indices — with the owners' CBSR
     *  rows (forward, MaxK layers). */
    void exchangeCbsr(Communicator &comm, CbsrMatrix &m);

    /** Ship m's halo rows back to their owners, add the received
     *  partials into the local boundary rows (in rank order), then zero
     *  the halo rows (backward, dense). */
    void reverseDense(Communicator &comm, Matrix &m);

    /** Reverse exchange of CBSR gradient rows: data is accumulated at
     *  the (shared) forward pattern; indices travel along as the wire
     *  format's self-description and are checked in debug builds. */
    void reverseCbsr(Communicator &comm, CbsrMatrix &m);

  private:
    const HaloShard &shard_;
    std::vector<std::vector<std::uint8_t>> sendBuf_;
    std::vector<std::vector<std::uint8_t>> recvBuf_;
};

} // namespace maxk::dist

#endif // MAXK_DIST_HALO_HH
