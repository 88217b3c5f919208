// Central compute-kernel backend for the tensor layer.
//
// Every dense loop the autograd ops execute (matmul, batched matmul,
// softmax, layernorm, elementwise maps, embedding gather) lives here, behind
// a process-wide lazily-initialised ThreadPool. Work is dispatched with
// ParallelRanges: a job is split across the pool only when its element-count
// cost crosses ParallelMinWork() (so tiny test tensors stay serial), the
// pool has more than one thread, and the caller is outside a serial region.
//
// Nesting: code that runs on a pool worker (a ParallelFor chunk, a
// ThreadPool::Run task such as one serving user's scores or one sub-batch
// of StisanModel::ScoreBatch) is in a serial region (util/thread_pool.h),
// so every kernel it reaches runs inline on that thread. A task therefore
// never waits on the pool it runs on, and serving and batched inference
// get their parallelism from running requests or sub-batches side by side
// rather than from splitting each forward's small ops; only training and
// direct single-instance calls still split.
//
// Determinism: parallelism is only ever over *disjoint output rows/ranges* —
// each output element is produced by exactly one thread using the same
// inner-loop accumulation order as the serial path, so results are
// bit-identical for any thread count. Cross-row reductions (ops::Sum,
// layernorm's gamma/beta grads, embedding scatter) stay serial for the same
// reason.
//
// Env knob:
//   STISAN_NUM_THREADS    - pool size (default: hardware concurrency). It
//                           also bounds how many serving requests score at
//                           once, since each user's scores run as one task.

#pragma once

#include <cstdint>
#include <functional>

#include "util/thread_pool.h"

namespace stisan::kernels {

/// Work threshold (in "element operations") below which ParallelRanges runs
/// serially.
constexpr int64_t ParallelMinWork() { return int64_t{1} << 15; }

/// The process-wide pool. Constructed on first use with STISAN_NUM_THREADS
/// threads (default: hardware concurrency).
ThreadPool& GlobalPool();

/// Number of worker threads the next dispatch will use.
int64_t NumThreads();

/// Re-sizes the global pool (0 = hardware concurrency). Intended for
/// benchmarks and tests that compare serial vs threaded execution; not safe
/// to call while kernels are executing on other threads.
void SetNumThreads(int64_t threads);

// ---- SIMD backend selection ------------------------------------------------
//
// The hot kernels (Gemm, BatchedGemm, SoftmaxRows, LayerNormRows,
// FusedAttentionForward) have explicitly vectorized implementations in
// kernels_simd.cc (AVX2+FMA via runtime CPU detection on x86-64; every
// other CPU runs the scalar kernels). They are ON by default when the CPU
// supports them; STISAN_SIMD=0 is the kill switch. Every backward built on
// Gemm/BatchedGemm (MatMul's, FusedAttentionBackward's products) follows
// the same switch; the remaining row loops are scalar on both backends.
// Under AVX2 every GEMM variant but the doubly-transposed one runs the same
// register-blocked row strips: a transposed B (every Linear input gradient,
// the attention backward's dP) is packed to [k,n] once per call on the
// calling thread, before the row split. The scalar backend stays the
// bit-exactness baseline, and the golden-metrics harness pins it
// explicitly.
//
// The vector kernels keep the determinism contract above (each output
// element's reduction order depends only on the reduction length, never on
// thread partitioning), so incremental-vs-full serving identity, batched-vs-
// single eval identity, and thread-count determinism all survive SIMD. They
// are NOT bit-identical to the scalar kernels, and fused attention matches
// the composed op chain (the test oracle) bit for bit only under the
// scalar backend.

/// True when the next kernel call will take the vector path.
bool SimdEnabled();

/// "avx2" or "scalar" — the backend the next kernel call uses.
const char* SimdBackendName();

/// Override for tests/tools: 1 forces the vector path (if the CPU has one),
/// 0 forces scalar, -1 restores the STISAN_SIMD env-var default.
void SetSimdEnabledForTesting(int enabled);

/// Runs fn(begin, end) over a partition of [0, n). Splits across the pool
/// when n * cost_per_item >= ParallelMinWork(), more than one worker is
/// available and the caller is outside a serial region; otherwise calls
/// fn(0, n) inline. Safe to call from inside a pool task (it runs inline
/// there).
void ParallelRanges(int64_t n, int64_t cost_per_item,
                    const std::function<void(int64_t, int64_t)>& fn);

// ---- Dense kernels ---------------------------------------------------------
// All pointers are dense row-major blocks (callers normalise views first).

/// C[m,n] (+)= A x B with optional logical transposes. Physical layouts:
/// A is [m,k] (or [k,m] when ta), B is [k,n] (or [n,k] when tb), C is always
/// [m,n]. Parallel over rows of C; under AVX2 a transposed B with an
/// untransposed A is first copied to [k,n], which the row chunks share.
void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, bool ta, bool tb, bool accumulate);

/// batch x independent Gemms on contiguous [b,m,k] x [b,k,n] blocks.
/// Parallel over the batch; a transposed B is packed as in Gemm, all
/// slices at once, before the split.
void BatchedGemm(const float* a, const float* b, float* c, int64_t batch,
                 int64_t m, int64_t k, int64_t n, bool ta, bool tb,
                 bool accumulate);

/// Row-wise numerically-stable softmax: y[r,:] = softmax(x[r,:]).
void SoftmaxRows(const float* x, float* y, int64_t rows, int64_t d);

/// Accumulates the softmax backward into gx: gx += dsoftmax(y, gy).
void SoftmaxBackwardRows(const float* y, const float* gy, float* gx,
                         int64_t rows, int64_t d);

/// Fused layer norm forward; also writes per-row mean and inverse stddev
/// (needed by the backward pass).
void LayerNormRows(const float* x, const float* gamma, const float* beta,
                   float* y, float* mu, float* inv_sigma, int64_t rows,
                   int64_t d, float eps);

/// Accumulates the layer-norm backward for rows x under output gradient gy,
/// given the mu/inv_sigma LayerNormRows wrote: ggamma and gbeta += their
/// sums over rows, and the input gradient into gx and into gx2 (the
/// residual operand of a fused LayerNorm(x + r)). Any destination may be
/// null. Serial on every backend: the gamma/beta sums reduce across rows,
/// and the determinism contract forbids cross-row parallel accumulation.
void LayerNormBackwardRows(const float* x, const float* gamma,
                           const float* mu, const float* inv_sigma,
                           const float* gy, float* gx, float* gx2,
                           float* ggamma, float* gbeta, int64_t rows,
                           int64_t d);

/// Row gather: out[i,:] = w[ids[i],:], zero-filled where ids[i] ==
/// padding_idx (pass a negative padding_idx to disable).
void GatherRows(const float* w, const int64_t* ids, float* out, int64_t n,
                int64_t d, int64_t padding_idx);

// ---- Fused attention -------------------------------------------------------
//
// One-pass scaled-masked-softmax attention over dense blocks:
//
//   out = softmax(q kᵀ · scale [+ bias]) v      (optionally · dropout mask)
//
// q is [batch,m,d], k/v are [batch,n,d] (batch == 1 for the 2-D case), bias
// is [batch,m,n] or a shared [m,n] (bias_broadcast). Causality is applied
// implicitly — the forward bounds its inner loops at column <= row and the
// backward zeroes the later columns' logit gradients — so no mask tensor
// is materialised and no -1e9 additions happen. The per-element accumulation
// orders replicate the composed MatMul → MulScalar → Add → Softmax →
// (Dropout) → MatMul chain exactly: masked logits there underflow to an
// exact 0 probability which GemmRowRange skips, so the bounded loops produce
// bit-identical results, and parallelism is over disjoint output rows only
// (same determinism contract as every kernel above).

/// Forward. probs (optional, [batch,m,n]) receives the post-softmax
/// attention probabilities — the only tensor saved for the backward; pass
/// nullptr in inference to use a per-row scratch instead. drop_mask
/// (optional, [batch,m,n]) holds 0 or 1/(1-p) inverted-dropout factors
/// applied after the softmax.
void FusedAttentionForward(const float* q, const float* k, const float* v,
                           const float* bias, const float* drop_mask,
                           float* probs, float* out, int64_t batch, int64_t m,
                           int64_t n, int64_t d, bool causal, float scale,
                           bool bias_broadcast);

/// Backward. Accumulates into dq/dk/dv/dbias (any may be nullptr). gout is
/// the output gradient [batch,m,d]; probs/drop_mask are the forward's saved
/// buffers; ds is caller-provided scratch [batch,m,n] that ends up holding
/// the scaled logit gradients. The composed chain's arithmetic: dV += P̃ᵀ·G,
/// dP̃ = G·Vᵀ, one row pass for the dropout mask, softmax Jacobian and bias
/// gradient, then dQ += dS·K and dK += dSᵀ·Q, each product one Gemm (2-D)
/// or BatchedGemm call. dV, dQ, dK accumulate in the composed tape's order,
/// so results stay bit-identical to the composed backward on the scalar
/// backend even when q/k/v alias one buffer.
void FusedAttentionBackward(const float* q, const float* k, const float* v,
                            const float* probs, const float* drop_mask,
                            const float* gout, float* dq, float* dk, float* dv,
                            float* dbias, float* ds, int64_t batch, int64_t m,
                            int64_t n, int64_t d, bool causal, float scale,
                            bool bias_broadcast);

}  // namespace stisan::kernels
