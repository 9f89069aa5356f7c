/**
 * @file
 * Trainer-state <-> Checkpoint section mapping (ISSUE 9).
 *
 * The three trainers (nn::Trainer, sample::SampledTrainer,
 * dist::ShardedTrainer) persist the same core state: parameter values,
 * Adam moments + step count, the dropout RNG stream position, and the
 * metric trajectories accumulated so far. This file centralises the
 * section naming so a checkpoint written by one loop is legible to the
 * tools (maxk-faults) and the tests.
 *
 * Sections:
 *   "param.count"  u64   parameter-tensor count (validation)
 *   "param.shape"  u64[] rows,cols per parameter (validation)
 *   "param.<i>"    matrix
 *   "adam.m.<i>"   matrix  first moments
 *   "adam.v.<i>"   matrix  second moments
 *   "adam.t"       u64     bias-correction step count
 *   "rng.drop"     u64[4]  dropout stream position
 *   "epoch"        u64     last completed epoch  } written by
 *   "traj.*"       metric trajectories          } nn::EpochLoop
 *
 * Restoring all of the above at an end-of-epoch boundary makes the
 * resumed run bitwise-equal to the uninterrupted one: the parameters,
 * optimizer state, and every RNG stream continue exactly where the
 * checkpointed run left them.
 */

#ifndef MAXK_NN_CHECKPOINT_HH
#define MAXK_NN_CHECKPOINT_HH

#include "graph/formats/checkpoint.hh"
#include "nn/model.hh"
#include "nn/optimizer.hh"

namespace maxk::nn
{

/** Write params + Adam state + dropout RNG position into `ck`.
 *  Section buffers are reused across calls (alloc-free once warm). */
void writeModelState(formats::Checkpoint &ck, GnnModel &model,
                     const Adam &adam);

/** Check that `ck` holds a complete model state for `params`: every
 *  param / Adam moment section with the live shape, the Adam step
 *  count and the four-word dropout stream. Changes nothing. */
Expected<std::monostate, IoError>
checkModelState(const formats::Checkpoint &ck, const ParamRefs &params);

/** Restore params + Adam state + dropout RNG position from `ck`.
 *  Validate-then-apply: on a typed error (missing section, different
 *  parameter shapes) neither `model` nor `adam` has been touched. */
Expected<std::monostate, IoError>
readModelState(const formats::Checkpoint &ck, GnnModel &model,
               Adam &adam);

} // namespace maxk::nn

#endif // MAXK_NN_CHECKPOINT_HH
