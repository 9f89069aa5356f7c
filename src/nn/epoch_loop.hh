/**
 * @file
 * The one epoch loop of the full-batch, sampled and sharded trainers.
 *
 * Every engine runs the paper's Fig. 1 epoch: forward, loss, backward,
 * optimizer, then evaluation and bookkeeping. EpochLoop owns the policy
 * they share: cadence clamps, the epoch-start fault hook, trace spans,
 * eval and checkpoint cadence, best-val bookkeeping, resume, telemetry,
 * the steady-state allocation probe and the host clock. An engine
 * supplies only its roles (EpochRoles).
 *
 * Ranked engines build one loop on the calling thread, validate the
 * resume image there, and call run() from every rank thread. Exactly one thread passes a
 * non-null result: it owns the trajectories and the store. The roles
 * run on every rank, since eval and checkpoint gathers are collectives.
 */

#ifndef MAXK_NN_EPOCH_LOOP_HH
#define MAXK_NN_EPOCH_LOOP_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault.hh"
#include "common/stopwatch.hh"
#include "common/trace.hh"
#include "graph/formats/checkpoint.hh"
#include "graph/registry.hh"

namespace maxk::nn
{

/** Hyper-parameters every trainer shares (Table 3 analogue). Each
 *  derived config keeps its own default epoch count. */
struct LoopConfig
{
    std::uint32_t epochs = 100;
    Float lr = 0.01f;
    Float weightDecay = 0.0f;
    std::uint32_t evalEvery = 1;  //!< metric cadence (0 is clamped to 1)
    bool verbose = false;

    /** Non-empty: write a rotated end-of-epoch image every
     *  checkpointEvery epochs (0 is clamped to 1), keep checkpointKeep
     *  of them, and resume the next run from the newest valid one with
     *  bitwise-identical final state. */
    std::string checkpointDir;
    std::uint32_t checkpointEvery = 1;
    std::uint32_t checkpointKeep = 2;

    /** Optional fault injector (the engine's epoch site plus
     *  "checkpoint.write"). Not owned. */
    FaultInjector *faults = nullptr;

    /** Arm telemetry for the run and log a counter-delta report per
     *  epoch. Observation only: bitwise-neutral (tests/test_telemetry.cc). */
    bool telemetry = false;
};

/** Outcome of a training run. */
struct TrainResult
{
    std::vector<double> trainLoss;    //!< one per epoch
    std::vector<double> valMetric;    //!< one per eval point
    std::vector<double> testMetric;   //!< one per eval point
    std::vector<std::uint32_t> evalEpochs;

    double bestValMetric = 0.0;
    double testAtBestVal = 0.0;   //!< Table 5's reported number
    double finalTestMetric = 0.0;
    double hostSeconds = 0.0;     //!< wall clock of the whole run

    /** Matrix/CbsrMatrix heap allocations, all threads, from the second
     *  epoch after the start to the end of the run (0 once every
     *  workspace is warm, and for shorter runs). */
    std::uint64_t steadyStateAllocCount = 0;
};

/** Validation and test metric of one evaluation. */
struct EvalScores
{
    double val = 0.0;
    double test = 0.0;
};

/**
 * The task's metric (accuracy, micro-F1 or ROC-AUC) of full-graph
 * `logits` over the validation and test masks of `data`. `targets`
 * holds the multi-label targets (unused for single-label tasks).
 */
EvalScores taskMetric(const TrainingTask &task, const TrainingData &data,
                      const Matrix &targets, const Matrix &logits);

/** Persist the metric trajectories ("traj.*" sections). Section buffers
 *  are reused across calls. */
void writeTrajectories(formats::Checkpoint &ck, const TrainResult &r);

/** Read the "traj.*" sections into `r`; typed error (and `r`
 *  untouched) when one is missing or malformed. */
Expected<std::monostate, IoError>
readTrajectories(const formats::Checkpoint &ck, TrainResult &r);

/** Fixed identity of one engine's loop. */
struct LoopNames
{
    const char *engine;      //!< log prefix, e.g. "Trainer"
    const char *store;       //!< checkpoint basename, e.g. "trainer"
    const char *faultSite;   //!< epoch-start hook, e.g. "trainer.epoch"
    const telemetry::Phase &epochSpan;
    const telemetry::Phase &evalSpan;
};

/** The engine half of an epoch. */
struct EpochRoles
{
    /** Train epoch `e`; returns its loss (recorded by the owner). */
    std::function<double(std::uint32_t e)> step;
    /** Evaluation forward of epoch `e` (scores used by the owner). */
    std::function<EvalScores(std::uint32_t e)> eval;
    /** Write the engine's sections (model state, extras) into `ck`,
     *  which is null on threads that do not own the store. */
    std::function<void(formats::Checkpoint *ck)> save;
    /** Optional rank barrier before each epoch and after the last. */
    std::function<void()> sync;
};

using ImageCheck = std::function<Expected<std::monostate, IoError>(
    const formats::Checkpoint &)>;

class EpochLoop
{
  public:
    /** Starts the host clock, arms telemetry, clamps the cadences and
     *  opens the checkpoint store. */
    EpochLoop(const LoopConfig &cfg, const LoopNames &names);

    /**
     * Resume from the newest verifiable image, if any. Its trajectories
     * are read first, then `restore` validates (and may apply) the
     * engine's sections; `restore` must change nothing when it fails.
     * On success `result`'s trajectories are replaced and later epochs
     * start after the image's epoch; otherwise the run starts fresh.
     * Returns the first epoch to run.
     */
    std::uint32_t resume(TrainResult &result, const ImageCheck &restore);

    /**
     * Run the remaining epochs on this thread. `owner` is the result
     * this thread records into (hostSeconds and steadyStateAllocCount
     * included), or null on non-owning ranks. `rank` keys the fault
     * hook; `detail` tags the trace spans.
     */
    void run(const EpochRoles &roles, TrainResult *owner,
             std::uint32_t rank = 0, std::string_view detail = {});

  private:
    void save(const EpochRoles &roles, TrainResult *owner,
              std::uint32_t epoch);

    const LoopConfig cfg_;
    const LoopNames names_;
    Stopwatch watch_;
    std::optional<telemetry::ArmGuard> arm_;
    telemetry::TelemetryReport report_;
    std::uint32_t evalEvery_;
    std::uint32_t checkpointEvery_;
    std::optional<formats::CheckpointStore> store_;
    formats::Checkpoint image_;  //!< owner's save image
    std::uint32_t start_ = 0;
    std::uint64_t allocBase_ = 0;
};

} // namespace maxk::nn

#endif // MAXK_NN_EPOCH_LOOP_HH
