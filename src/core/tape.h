// Time Aware Position Encoder (TAPE) — paper §III-C, eq. 2-3, Algorithm 1.
//
// TAPE replaces the integer positions 1,2,3,... of the vanilla sinusoidal
// encoding with time-interval-stretched positions
//
//   pos_1 = 1,  pos_{k+1} = pos_k + dt_{k,k+1} / mean(dt) + 1,
//
// then applies the standard sinusoidal transformation. It is parameter-free
// and O(n): sequences that share the same POIs but different check-in
// rhythms get different positional signals, which the downstream attention
// can exploit.

#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace stisan::core {

/// Computes the time-adjusted positions for a timestamp sequence.
///
/// `first_real` marks the first non-padding index: positions inside the
/// padding prefix advance by exactly 1 (their time deltas are zero by
/// construction), so the real subsequence starts with a clean slate.
/// The mean interval is computed over real entries only. A sequence with
/// (near-)zero total time span degenerates gracefully to integer positions.
/// Out-of-order timestamps (clock skew, duplicate-second records) are
/// tolerated: negative gaps are clamped to zero, counted in the obs counter
/// "tape/negative_gaps_clamped", and warned about once per process.
std::vector<double> TimeAwarePositions(const std::vector<double>& timestamps,
                                       int64_t first_real = 0);

/// Full TAPE: returns x + SinusoidalEncoding(TimeAwarePositions(t), d).
/// x: [n, d], timestamps: length n.
Tensor ApplyTape(const Tensor& x, const std::vector<double>& timestamps,
                 int64_t first_real = 0);

}  // namespace stisan::core
