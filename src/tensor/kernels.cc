#include "tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.h"
#include "tensor/kernels_simd.h"

namespace stisan::kernels {

namespace {

int64_t EnvInt64(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  if (end == v) return fallback;
  return static_cast<int64_t>(parsed);
}

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;

}  // namespace

ThreadPool& GlobalPool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool) {
    g_pool = std::make_unique<ThreadPool>(EnvInt64("STISAN_NUM_THREADS", 0));
    // Snapshot-time gauges over the live pool (it can be swapped by
    // SetNumThreads, so read through g_pool under the mutex each time).
    static const bool registered = [] {
      obs::RegisterCallbackGauge("threadpool/tasks_submitted", [] {
        std::lock_guard<std::mutex> lk(g_pool_mutex);
        return g_pool ? double(g_pool->tasks_submitted()) : 0.0;
      });
      obs::RegisterCallbackGauge("threadpool/tasks_completed", [] {
        std::lock_guard<std::mutex> lk(g_pool_mutex);
        return g_pool ? double(g_pool->tasks_completed()) : 0.0;
      });
      obs::RegisterCallbackGauge("threadpool/num_threads", [] {
        std::lock_guard<std::mutex> lk(g_pool_mutex);
        return g_pool ? double(g_pool->num_threads()) : 0.0;
      });
      return true;
    }();
    (void)registered;
  }
  return *g_pool;
}

int64_t NumThreads() { return GlobalPool().num_threads(); }

void SetNumThreads(int64_t threads) {
  GlobalPool();  // ensure initialised so the swap below is the only writer
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  g_pool = std::make_unique<ThreadPool>(threads);
}

namespace {
// -1 = follow STISAN_SIMD (default on), 0/1 = forced by tests/tools.
std::atomic<int> g_simd_override{-1};
}  // namespace

bool SimdEnabled() {
  const int ov = g_simd_override.load(std::memory_order_relaxed);
  if (ov >= 0) return ov != 0 && simd::Available();
  static const bool env_on = [] {
    const char* v = std::getenv("STISAN_SIMD");
    return !(v != nullptr && v[0] == '0' && v[1] == '\0');
  }();
  return env_on && simd::Available();
}

const char* SimdBackendName() {
  return SimdEnabled() ? simd::Name() : "scalar";
}

void SetSimdEnabledForTesting(int enabled) {
  g_simd_override.store(enabled, std::memory_order_relaxed);
}

void ParallelRanges(int64_t n, int64_t cost_per_item,
                    const std::function<void(int64_t, int64_t)>& fn) {
  if (n <= 0) return;
  const int64_t work = n * std::max<int64_t>(1, cost_per_item);
  if (InSerialRegion() || work < ParallelMinWork()) {
    fn(0, n);
    return;
  }
  ThreadPool& pool = GlobalPool();
  const int64_t chunks = std::min<int64_t>(n, pool.num_threads());
  if (chunks <= 1) {
    fn(0, n);
    return;
  }
  static obs::Counter& dispatches = obs::GetCounter("kernels/dispatches");
  dispatches.Inc();
  const int64_t per_chunk = (n + chunks - 1) / chunks;
  pool.Run((n + per_chunk - 1) / per_chunk, [n, per_chunk, &fn](int64_t c) {
    fn(c * per_chunk, std::min(n, (c + 1) * per_chunk));
  });
}

namespace {

// One row-range of the Gemm. Every variant iterates output rows i in
// [i0, i1) and uses the same per-element accumulation order as a full
// serial sweep, so threading never changes results. The vector backend
// takes every B that is not transposed: Gemm and BatchedGemm pack a
// transposed B first when A is not transposed, and the doubly-transposed
// variant, which no production op emits, stays on the scalar loop.
void GemmRowRange(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n, bool ta, bool tb, bool accumulate,
                  bool use_simd, int64_t i0, int64_t i1) {
  if (!accumulate) std::fill(c + i0 * n, c + i1 * n, 0.0f);
  if (use_simd && !tb) {
    simd::GemmRowRange(a, b, c, m, k, n, ta, i0, i1);
  } else if (!ta && !tb) {
    for (int64_t i = i0; i < i1; ++i) {
      float* crow = c + i * n;
      for (int64_t p = 0; p < k; ++p) {
        const float av = a[i * k + p];
        if (av == 0.0f) continue;
        const float* brow = b + p * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  } else if (!ta && tb) {  // B physically [n,k]
    for (int64_t i = i0; i < i1; ++i) {
      const float* arow = a + i * k;
      for (int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * k;
        float acc = 0.0f;
        for (int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
        c[i * n + j] += acc;
      }
    }
  } else if (ta && !tb) {  // A physically [k,m]
    for (int64_t i = i0; i < i1; ++i) {
      float* crow = c + i * n;
      for (int64_t p = 0; p < k; ++p) {
        const float av = a[p * m + i];
        if (av == 0.0f) continue;
        const float* brow = b + p * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  } else {  // ta && tb: A [k,m], B [n,k]
    for (int64_t i = i0; i < i1; ++i)
      for (int64_t j = 0; j < n; ++j) {
        float acc = 0.0f;
        for (int64_t p = 0; p < k; ++p) acc += a[p * m + i] * b[j * k + p];
        c[i * n + j] += acc;
      }
  }
}

// B transposed from [n,k] to [k,n] in each of `batch` contiguous slices.
// It is a copy, so the packed product rounds as the strips round any
// untransposed B.
std::vector<float> PackTransposed(const float* b, int64_t batch, int64_t n,
                                  int64_t k) {
  std::vector<float> packed(static_cast<size_t>(batch * n * k));
  for (int64_t t = 0; t < batch; ++t) {
    const float* src = b + t * n * k;
    float* dst = packed.data() + t * n * k;
    for (int64_t j = 0; j < n; ++j)
      for (int64_t p = 0; p < k; ++p) dst[p * n + j] = src[j * k + p];
  }
  return packed;
}

}  // namespace

// Under the vector backend a transposed B (A not transposed: every Linear
// input gradient and the attention backward's dP) is packed once, here on
// the calling thread, before the split; the chunks share the copy
// read-only and run the register-blocked strips on it.
void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, bool ta, bool tb, bool accumulate) {
  const bool use_simd = SimdEnabled();
  std::vector<float> packed;
  if (use_simd && !ta && tb) {
    packed = PackTransposed(b, 1, n, k);
    b = packed.data();
    tb = false;
  }
  ParallelRanges(m, k * n, [&](int64_t i0, int64_t i1) {
    GemmRowRange(a, b, c, m, k, n, ta, tb, accumulate, use_simd, i0, i1);
  });
}

void BatchedGemm(const float* a, const float* b, float* c, int64_t batch,
                 int64_t m, int64_t k, int64_t n, bool ta, bool tb,
                 bool accumulate) {
  const int64_t sza = m * k, szb = k * n, szc = m * n;
  const bool use_simd = SimdEnabled();
  std::vector<float> packed;
  if (use_simd && !ta && tb) {
    packed = PackTransposed(b, batch, n, k);
    b = packed.data();
    tb = false;
  }
  ParallelRanges(batch, m * k * n, [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      GemmRowRange(a + t * sza, b + t * szb, c + t * szc, m, k, n, ta, tb,
                   accumulate, use_simd, 0, m);
    }
  });
}

void SoftmaxRows(const float* x, float* y, int64_t rows, int64_t d) {
  const bool use_simd = SimdEnabled();
  ParallelRanges(rows, d, [&](int64_t r0, int64_t r1) {
    if (use_simd) {
      simd::SoftmaxRowRange(x, y, d, r0, r1);
      return;
    }
    for (int64_t r = r0; r < r1; ++r) {
      const float* xr = x + r * d;
      float* yr = y + r * d;
      float mx = xr[0];
      for (int64_t j = 1; j < d; ++j) mx = std::max(mx, xr[j]);
      float sum = 0.0f;
      for (int64_t j = 0; j < d; ++j) {
        yr[j] = std::exp(xr[j] - mx);
        sum += yr[j];
      }
      const float inv = 1.0f / sum;
      for (int64_t j = 0; j < d; ++j) yr[j] *= inv;
    }
  });
}

void SoftmaxBackwardRows(const float* y, const float* gy, float* gx,
                         int64_t rows, int64_t d) {
  ParallelRanges(rows, d, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const float* yr = y + r * d;
      const float* gr = gy + r * d;
      float dot = 0.0f;
      for (int64_t j = 0; j < d; ++j) dot += yr[j] * gr[j];
      float* gxr = gx + r * d;
      for (int64_t j = 0; j < d; ++j) gxr[j] += yr[j] * (gr[j] - dot);
    }
  });
}

void LayerNormRows(const float* x, const float* gamma, const float* beta,
                   float* y, float* mu, float* inv_sigma, int64_t rows,
                   int64_t d, float eps) {
  // Rows shorter than one vector stay here: in the avx2,fma-targeted
  // kernel GCC contracts the scalar tail's a*b+c into FMAs, which would
  // round them differently from this loop.
  const bool use_simd = SimdEnabled() && d >= 8;
  ParallelRanges(rows, d, [&](int64_t r0, int64_t r1) {
    if (use_simd) {
      simd::LayerNormRowRange(x, gamma, beta, y, mu, inv_sigma, d, eps, r0,
                              r1);
      return;
    }
    for (int64_t r = r0; r < r1; ++r) {
      const float* xr = x + r * d;
      float m = 0.0f;
      for (int64_t j = 0; j < d; ++j) m += xr[j];
      m /= static_cast<float>(d);
      float var = 0.0f;
      for (int64_t j = 0; j < d; ++j) {
        const float c = xr[j] - m;
        var += c * c;
      }
      var /= static_cast<float>(d);
      const float is = 1.0f / std::sqrt(var + eps);
      mu[r] = m;
      inv_sigma[r] = is;
      float* yr = y + r * d;
      for (int64_t j = 0; j < d; ++j)
        yr[j] = gamma[j] * (xr[j] - m) * is + beta[j];
    }
  });
}

void LayerNormBackwardRows(const float* x, const float* gamma,
                           const float* mu, const float* inv_sigma,
                           const float* gy, float* gx, float* gx2,
                           float* ggamma, float* gbeta, int64_t rows,
                           int64_t d) {
  const float inv_d = 1.0f / static_cast<float>(d);
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    const float* g = gy + r * d;
    const float m = mu[r];
    const float is = inv_sigma[r];
    // xhat_j = (x_j - m) * is
    float sum_gg = 0.0f;   // sum_j gamma_j * g_j
    float sum_ggx = 0.0f;  // sum_j gamma_j * g_j * xhat_j
    for (int64_t j = 0; j < d; ++j) {
      const float xhat = (xr[j] - m) * is;
      const float gg = gamma[j] * g[j];
      sum_gg += gg;
      sum_ggx += gg * xhat;
      if (ggamma != nullptr) ggamma[j] += g[j] * xhat;
      if (gbeta != nullptr) gbeta[j] += g[j];
    }
    if (gx == nullptr && gx2 == nullptr) continue;
    for (int64_t j = 0; j < d; ++j) {
      const float xhat = (xr[j] - m) * is;
      const float gg = gamma[j] * g[j];
      const float v = is * (gg - inv_d * sum_gg - xhat * inv_d * sum_ggx);
      if (gx != nullptr) gx[r * d + j] += v;
      if (gx2 != nullptr) gx2[r * d + j] += v;
    }
  }
}

void GatherRows(const float* w, const int64_t* ids, float* out, int64_t n,
                int64_t d, int64_t padding_idx) {
  ParallelRanges(n, d, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const int64_t id = ids[i];
      if (id == padding_idx) {
        std::fill(out + i * d, out + (i + 1) * d, 0.0f);
      } else {
        std::copy(w + id * d, w + (id + 1) * d, out + i * d);
      }
    }
  });
}

void FusedAttentionForward(const float* q, const float* k, const float* v,
                           const float* bias, const float* drop_mask,
                           float* probs, float* out, int64_t batch, int64_t m,
                           int64_t n, int64_t d, bool causal, float scale,
                           bool bias_broadcast) {
  const int64_t rows = batch * m;
  const bool use_simd = SimdEnabled();
  ParallelRanges(rows, n * (2 * d + 4), [&](int64_t t0, int64_t t1) {
    // Inference reuses one scratch row per chunk instead of saving probs.
    std::vector<float> scratch;
    if (probs == nullptr) scratch.resize(static_cast<size_t>(n));
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t b = t / m;
      const int64_t r = t % m;
      const int64_t bound = causal ? r + 1 : n;
      const float* qrow = q + t * d;
      const float* kblk = k + b * n * d;
      const float* vblk = v + b * n * d;
      const float* brow =
          bias == nullptr ? nullptr : bias + (bias_broadcast ? r * n : t * n);
      float* prow = probs != nullptr ? probs + t * n : scratch.data();
      const float* mrow = drop_mask == nullptr ? nullptr : drop_mask + t * n;
      if (use_simd) {
        simd::AttentionRow(qrow, kblk, vblk, brow, mrow, prow, out + t * d,
                           bound, d, scale);
        continue;
      }
      // Logits: per element the exact accumulation order of the transposed
      // GEMM (ascending inner dim), then · scale, then + bias.
      for (int64_t j = 0; j < bound; ++j) {
        const float* krow = kblk + j * d;
        float acc = 0.0f;
        for (int64_t c = 0; c < d; ++c) acc += qrow[c] * krow[c];
        float x = acc * scale;
        if (brow != nullptr) x += brow[j];
        prow[j] = x;
      }
      // Bounded row softmax. Column r itself is always in range, so the
      // bounded max/sum equal the full-row ones of the composed path (its
      // -1e9-masked entries exp-underflow to exactly 0).
      float mx = prow[0];
      for (int64_t j = 1; j < bound; ++j) mx = std::max(mx, prow[j]);
      float sum = 0.0f;
      for (int64_t j = 0; j < bound; ++j) {
        prow[j] = std::exp(prow[j] - mx);
        sum += prow[j];
      }
      const float inv = 1.0f / sum;
      for (int64_t j = 0; j < bound; ++j) prow[j] *= inv;
      // Stream into the value aggregation, skipping exact zeros like
      // GemmRowRange (so dropped columns cost nothing).
      float* orow = out + t * d;
      std::fill(orow, orow + d, 0.0f);
      for (int64_t j = 0; j < bound; ++j) {
        float av = prow[j];
        if (mrow != nullptr) av *= mrow[j];
        if (av == 0.0f) continue;
        const float* vrow = vblk + j * d;
        for (int64_t c = 0; c < d; ++c) orow[c] += av * vrow[c];
      }
    }
  });
}

void FusedAttentionBackward(const float* q, const float* k, const float* v,
                            const float* probs, const float* drop_mask,
                            const float* gout, float* dq, float* dk, float* dv,
                            float* dbias, float* ds, int64_t batch, int64_t m,
                            int64_t n, int64_t d, bool causal, float scale,
                            bool bias_broadcast) {
  // Each product is one GEMM per batch slice. A 2-D call (batch == 1, every
  // training window) takes Gemm, which splits rows across the pool.
  auto gemm = [batch](const float* a, const float* b, float* c, int64_t rows,
                      int64_t inner, int64_t cols, bool ta, bool tb,
                      bool accumulate) {
    if (batch == 1) {
      Gemm(a, b, c, rows, inner, cols, ta, tb, accumulate);
    } else {
      BatchedGemm(a, b, c, batch, rows, inner, cols, ta, tb, accumulate);
    }
  };
  // dV += P̃ᵀ G, P̃ the post-dropout probabilities (staged in ds). It runs
  // first, as the output MatMul's backward does on the composed tape, so
  // the sums stay in that order when k and v alias (TAAD's Attn(C, F, F)).
  const float* ptilde = probs;
  if (drop_mask != nullptr) {
    ParallelRanges(batch * m * n, 1, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) ds[i] = probs[i] * drop_mask[i];
    });
    ptilde = ds;
  }
  if (dv != nullptr) gemm(ptilde, gout, dv, n, m, d, true, false, true);
  if (dq == nullptr && dk == nullptr && dbias == nullptr) return;
  // dP̃ = G Vᵀ, then one pass per query row turns it into dS · scale:
  // dropout backward, the softmax Jacobian dS = P ∘ (dP − Σ P·dP), the
  // bias gradient of the unscaled dS, and causally masked columns set to
  // exactly 0 (the composed softmax's exp-underflowed probabilities give
  // them none). Batches run in ascending order inside each row, so a
  // shared [m,n] bias row is owned by one thread and sums over the batch
  // in the composed broadcast-Add backward's order.
  gemm(gout, v, ds, m, d, n, false, true, false);
  ParallelRanges(m, batch * n * 6, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const int64_t bound = causal ? r + 1 : n;
      for (int64_t b = 0; b < batch; ++b) {
        const int64_t t = b * m + r;
        const float* prow = probs + t * n;
        float* dsrow = ds + t * n;
        if (drop_mask != nullptr) {
          const float* mrow = drop_mask + t * n;
          for (int64_t j = 0; j < bound; ++j) dsrow[j] *= mrow[j];
        }
        float dot = 0.0f;
        for (int64_t j = 0; j < bound; ++j) dot += prow[j] * dsrow[j];
        for (int64_t j = 0; j < bound; ++j)
          dsrow[j] = prow[j] * (dsrow[j] - dot);
        std::fill(dsrow + bound, dsrow + n, 0.0f);
        if (dbias != nullptr) {
          float* dbrow = dbias + (bias_broadcast ? r : t) * n;
          for (int64_t j = 0; j < bound; ++j) dbrow[j] += dsrow[j];
        }
        for (int64_t j = 0; j < bound; ++j) dsrow[j] *= scale;
      }
    }
  });
  // dQ += (dS · scale) K, then dK += (dS · scale)ᵀ Q: the composed
  // MatMul(q, kᵀ) backward's dA-before-dB order.
  if (dq != nullptr) gemm(ds, k, dq, m, n, d, false, false, true);
  if (dk != nullptr) gemm(ds, q, dk, n, m, d, true, false, true);
}

}  // namespace stisan::kernels
