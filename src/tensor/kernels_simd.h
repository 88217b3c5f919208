// Vectorized kernel backend (internal to src/tensor and benchmarks).
//
// Explicit SIMD implementations of the hot kernels: AVX2+FMA on x86-64,
// selected by runtime CPU detection. This file holds vector code only.
// Every other CPU runs the scalar loops in kernels.cc, which remain the
// bit-exactness reference; kernels::SimdEnabled() (STISAN_SIMD=0 kill
// switch) is the one dispatch between the two, and the entry points below
// are called only when Available() (elsewhere they abort).
//
// Determinism contract (same as the scalar backend): the reduction order of
// every output element depends only on the reduction length and absolute
// element positions — 8-lane partial sums over [0, 8*(k/8)) plus a scalar
// tail for the dot products, one FMA per k step at fixed columns for the
// GEMM strips — never on how rows were partitioned across threads. So incremental
// vs full scoring, batched vs single eval, and any-thread-count runs stay
// bit-identical to each other under SIMD. What is NOT promised under SIMD:
// bit-identity to the scalar backend (FMA + lane-parallel partial sums round
// differently), and fused attention's bit-identity to the composed op chain
// kept as its test oracle (the composed full-row softmax sums masked
// exp-underflow terms lane-wise).

#pragma once

#include <cstdint>

namespace stisan::kernels::simd {

/// True when a vector backend exists for this CPU (AVX2+FMA, detected at
/// runtime on x86-64 on the first call and remembered).
bool Available();

/// "avx2", or "scalar" on a build without the x86-64 backend. Meaningful
/// only when Available().
const char* Name();

/// Row-range GEMM accumulate, C[i0:i1, :] += A x B, with A [m,k] (or [k,m]
/// when ta) and B always [k,n]. Every row runs the register-blocked column
/// strips. kernels.cc packs a transposed B to [k,n] once per call before
/// its row split, runs the doubly-transposed variant, which no production
/// op emits, on its scalar loop, and zero-fills C itself when not
/// accumulating.
void GemmRowRange(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n, bool ta, int64_t i0, int64_t i1);

/// y[r,:] = softmax(x[r,:]) for r in [r0, r1). x may alias y.
void SoftmaxRowRange(const float* x, float* y, int64_t d, int64_t r0,
                     int64_t r1);

/// Layer norm rows [r0, r1); writes y plus per-row mu / inv_sigma.
/// kernels.cc sends only d >= 8 here and keeps shorter rows on its loop.
void LayerNormRowRange(const float* x, const float* gamma, const float* beta,
                       float* y, float* mu, float* inv_sigma, int64_t d,
                       float eps, int64_t r0, int64_t r1);

/// One query row of fused attention: logits = qrow · K[j,:] * scale (+
/// brow[j]) for j < bound, bounded softmax into prow, then orow =
/// probs (· mrow) @ V. prow must hold at least `bound` floats. Each logit
/// is its own 8-lane dot product plus a horizontal sum, the one place the
/// backend still forms products that way: packing K into strips would
/// change the rounding of every served score.
void AttentionRow(const float* qrow, const float* kblk, const float* vblk,
                  const float* brow, const float* mrow, float* prow,
                  float* orow, int64_t bound, int64_t d, float scale);

}  // namespace stisan::kernels::simd
