#include "nn/recurrent.h"

namespace stisan::nn {

GruCell::GruCell(int64_t input_dim, int64_t hidden_dim, Rng& rng)
    : hidden_dim_(hidden_dim),
      xr_(input_dim, hidden_dim, rng), hr_(hidden_dim, hidden_dim, rng, false),
      xz_(input_dim, hidden_dim, rng), hz_(hidden_dim, hidden_dim, rng, false),
      xn_(input_dim, hidden_dim, rng), hn_(hidden_dim, hidden_dim, rng, false) {
  RegisterModule(&xr_);
  RegisterModule(&hr_);
  RegisterModule(&xz_);
  RegisterModule(&hz_);
  RegisterModule(&xn_);
  RegisterModule(&hn_);
}

Tensor GruCell::Forward(const Tensor& x, const Tensor& h) const {
  Tensor r = ops::Sigmoid(xr_.Forward(x) + hr_.Forward(h));
  Tensor z = ops::Sigmoid(xz_.Forward(x) + hz_.Forward(h));
  Tensor n = ops::Tanh(xn_.Forward(x) + r * hn_.Forward(h));
  Tensor one_minus_z = ops::AddScalar(ops::Neg(z), 1.0f);
  return one_minus_z * n + z * h;
}

StgnCell::StgnCell(int64_t input_dim, int64_t hidden_dim, Rng& rng)
    : hidden_dim_(hidden_dim),
      xi_(input_dim, hidden_dim, rng), hi_(hidden_dim, hidden_dim, rng, false),
      xf_(input_dim, hidden_dim, rng), hf_(hidden_dim, hidden_dim, rng, false),
      xo_(input_dim, hidden_dim, rng), ho_(hidden_dim, hidden_dim, rng, false),
      xg_(input_dim, hidden_dim, rng), hg_(hidden_dim, hidden_dim, rng, false),
      xt1_(input_dim, hidden_dim, rng), xt2_(input_dim, hidden_dim, rng),
      xd1_(input_dim, hidden_dim, rng), xd2_(input_dim, hidden_dim, rng) {
  RegisterModule(&xi_);
  RegisterModule(&hi_);
  RegisterModule(&xf_);
  RegisterModule(&hf_);
  RegisterModule(&xo_);
  RegisterModule(&ho_);
  RegisterModule(&xg_);
  RegisterModule(&hg_);
  RegisterModule(&xt1_);
  RegisterModule(&xt2_);
  RegisterModule(&xd1_);
  RegisterModule(&xd2_);
  wt1_ = RegisterParameter(Tensor::Randn({hidden_dim}, rng, 0.1f));
  wt2_ = RegisterParameter(Tensor::Randn({hidden_dim}, rng, 0.1f));
  wd1_ = RegisterParameter(Tensor::Randn({hidden_dim}, rng, 0.1f));
  wd2_ = RegisterParameter(Tensor::Randn({hidden_dim}, rng, 0.1f));
}

StgnCell::State StgnCell::Forward(const Tensor& x, const State& s, float dt,
                                  float dd) const {
  Tensor i = ops::Sigmoid(xi_.Forward(x) + hi_.Forward(s.h));
  Tensor f = ops::Sigmoid(xf_.Forward(x) + hf_.Forward(s.h));
  Tensor o = ops::Sigmoid(xo_.Forward(x) + ho_.Forward(s.h));
  Tensor g = ops::Tanh(xg_.Forward(x) + hg_.Forward(s.h));
  // Interval gates: scalar interval scaled through a learned vector.
  Tensor t1 = ops::Sigmoid(xt1_.Forward(x) +
                           ops::Sigmoid(ops::MulScalar(wt1_, dt)));
  Tensor t2 = ops::Sigmoid(xt2_.Forward(x) +
                           ops::Sigmoid(ops::MulScalar(wt2_, dt)));
  Tensor d1 = ops::Sigmoid(xd1_.Forward(x) +
                           ops::Sigmoid(ops::MulScalar(wd1_, dd)));
  Tensor d2 = ops::Sigmoid(xd2_.Forward(x) +
                           ops::Sigmoid(ops::MulScalar(wd2_, dd)));
  Tensor c = f * s.c + i * t1 * d1 * g;
  Tensor c_hat = f * s.c_hat + i * t2 * d2 * g;
  Tensor h = o * ops::Tanh(c_hat);
  return {h, c, c_hat};
}

}  // namespace stisan::nn
