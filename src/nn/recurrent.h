// Recurrent cells for the RNN-family baselines: GRU (GRU4Rec) and the
// spatio-temporal gated LSTM cell of STGN (Zhao et al., AAAI 2019).

#pragma once

#include "nn/layers.h"
#include "nn/module.h"

namespace stisan::nn {

/// Gated recurrent unit cell.
///   r = sigmoid(x Wxr + h Whr + br)
///   z = sigmoid(x Wxz + h Whz + bz)
///   n = tanh(x Wxn + r * (h Whn) + bn)
///   h' = (1 - z) * n + z * h
class GruCell : public Module {
 public:
  GruCell(int64_t input_dim, int64_t hidden_dim, Rng& rng);

  /// x: [1, input_dim], h: [1, hidden_dim] -> new hidden [1, hidden_dim].
  Tensor Forward(const Tensor& x, const Tensor& h) const;

  int64_t hidden_dim() const { return hidden_dim_; }

 private:
  int64_t hidden_dim_;
  Linear xr_, hr_, xz_, hz_, xn_, hn_;
};

/// STGN cell: an LSTM augmented with two time gates and two distance gates
/// that modulate the input gate and the cell shortcut based on the
/// time interval dt and geographic interval dd to the previous check-in.
///
///   T1 = sigmoid(x Wxt1 + sigmoid(dt wt1) + bt1)
///   D1 = sigmoid(x Wxd1 + sigmoid(dd wd1) + bd1)
///   T2 = sigmoid(x Wxt2 + sigmoid(dt wt2) + bt2)
///   D2 = sigmoid(x Wxd2 + sigmoid(dd wd2) + bd2)
///   c_hat' = f * c_hat + i * T2 * D2 * g        (interval-aware shortcut)
///   c'     = f * c     + i * T1 * D1 * g
///   h'     = o * tanh(c_hat')
class StgnCell : public Module {
 public:
  StgnCell(int64_t input_dim, int64_t hidden_dim, Rng& rng);

  struct State {
    Tensor h;      // [1, hidden]
    Tensor c;      // [1, hidden]
    Tensor c_hat;  // [1, hidden]
  };

  /// dt and dd are normalised scalar intervals to the previous step.
  State Forward(const Tensor& x, const State& state, float dt,
                float dd) const;

  int64_t hidden_dim() const { return hidden_dim_; }

 private:
  int64_t hidden_dim_;
  Linear xi_, hi_, xf_, hf_, xo_, ho_, xg_, hg_;
  Linear xt1_, xt2_, xd1_, xd2_;
  Tensor wt1_, wt2_, wd1_, wd2_;  // [hidden] interval projections
};

}  // namespace stisan::nn
