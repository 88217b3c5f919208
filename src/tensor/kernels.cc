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
// serial sweep, so threading never changes results.
void GemmRowRange(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n, bool ta, bool tb, bool accumulate,
                  int64_t i0, int64_t i1) {
  if (!accumulate) std::fill(c + i0 * n, c + i1 * n, 0.0f);
  if (!ta && !tb) {
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

}  // namespace

void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, bool ta, bool tb, bool accumulate) {
  const bool use_simd = SimdEnabled();
  ParallelRanges(m, k * n, [&](int64_t i0, int64_t i1) {
    if (use_simd) {
      simd::GemmRowRange(a, b, c, m, k, n, ta, tb, accumulate, i0, i1);
    } else {
      GemmRowRange(a, b, c, m, k, n, ta, tb, accumulate, i0, i1);
    }
  });
}

void BatchedGemm(const float* a, const float* b, float* c, int64_t batch,
                 int64_t m, int64_t k, int64_t n, bool ta, bool tb,
                 bool accumulate) {
  const int64_t sza = m * k, szb = k * n, szc = m * n;
  const bool use_simd = SimdEnabled();
  ParallelRanges(batch, m * k * n, [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      if (use_simd) {
        simd::GemmRowRange(a + t * sza, b + t * szb, c + t * szc, m, k, n, ta,
                           tb, accumulate, 0, m);
      } else {
        GemmRowRange(a + t * sza, b + t * szb, c + t * szc, m, k, n, ta, tb,
                     accumulate, 0, m);
      }
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
  const bool use_simd = SimdEnabled();
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
  const int64_t kv_rows = batch * n;
  const int64_t q_rows = batch * m;
  // Phase 1 — dV[i,:] += Σ_p attD[p,i] · G[p,:]. Runs first: when k or v
  // alias q (self-attention through one buffer) the composed tape also
  // applies the output-matmul backward before the logit chain.
  if (dv != nullptr) {
    ParallelRanges(kv_rows, m * d, [&](int64_t t0, int64_t t1) {
      for (int64_t t = t0; t < t1; ++t) {
        const int64_t b = t / n;
        const int64_t i = t % n;
        const float* pblk = probs + b * m * n;
        const float* mblk =
            drop_mask == nullptr ? nullptr : drop_mask + b * m * n;
        const float* gblk = gout + b * m * d;
        float* dvrow = dv + t * d;
        for (int64_t p = causal ? i : 0; p < m; ++p) {
          float av = pblk[p * n + i];
          if (mblk != nullptr) av *= mblk[p * n + i];
          if (av == 0.0f) continue;
          const float* grow = gblk + p * d;
          for (int64_t c = 0; c < d; ++c) dvrow[c] += av * grow[c];
        }
      }
    });
  }
  if (ds == nullptr) return;  // only dV was requested
  // Phase 2 — per query row: dP = G Vᵀ, dropout backward, the softmax
  // Jacobian row reduction, the same-shape bias gradient, and dQ. ds keeps
  // the *unscaled* logit gradients (what the composed Add backward sees);
  // dQ/dK fold the · scale in on the fly, reproducing the composed
  // MulScalar-materialised operand bit-for-bit.
  ParallelRanges(q_rows, n * (2 * d + 6), [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t b = t / m;
      const int64_t r = t % m;
      const int64_t bound = causal ? r + 1 : n;
      const float* prow = probs + t * n;
      const float* mrow = drop_mask == nullptr ? nullptr : drop_mask + t * n;
      const float* grow = gout + t * d;
      const float* vblk = v + b * n * d;
      const float* kblk = k + b * n * d;
      float* dsrow = ds + t * n;
      for (int64_t j = 0; j < bound; ++j) {
        const float* vrow = vblk + j * d;
        float acc = 0.0f;
        for (int64_t c = 0; c < d; ++c) acc += grow[c] * vrow[c];
        if (mrow != nullptr) acc *= mrow[j];
        dsrow[j] = acc;
      }
      float dot = 0.0f;
      for (int64_t j = 0; j < bound; ++j) dot += prow[j] * dsrow[j];
      for (int64_t j = 0; j < bound; ++j)
        dsrow[j] = prow[j] * (dsrow[j] - dot);
      if (dbias != nullptr && !bias_broadcast) {
        float* dbrow = dbias + t * n;
        for (int64_t j = 0; j < bound; ++j) dbrow[j] += dsrow[j];
      }
      if (dq != nullptr) {
        float* dqrow = dq + t * d;
        for (int64_t j = 0; j < bound; ++j) {
          const float av = dsrow[j] * scale;
          if (av == 0.0f) continue;
          const float* krow = kblk + j * d;
          for (int64_t c = 0; c < d; ++c) dqrow[c] += av * krow[c];
        }
      }
    }
  });
  // Phase 2b — a shared [m,n] bias reduces over the batch: each output row
  // is owned by one thread and batches accumulate in ascending order, the
  // per-element order of the composed serial broadcast-Add backward.
  if (dbias != nullptr && bias_broadcast) {
    ParallelRanges(m, batch * n, [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const int64_t bound = causal ? r + 1 : n;
        float* dbrow = dbias + r * n;
        for (int64_t b = 0; b < batch; ++b) {
          const float* dsrow = ds + (b * m + r) * n;
          for (int64_t j = 0; j < bound; ++j) dbrow[j] += dsrow[j];
        }
      }
    });
  }
  // Phase 3 — dK[i,:] += Σ_p (dS[p,i] · scale) · Q[p,:]. After dQ, matching
  // the composed dA-before-dB MatMul backward when q and k alias.
  if (dk != nullptr) {
    ParallelRanges(kv_rows, m * d, [&](int64_t t0, int64_t t1) {
      for (int64_t t = t0; t < t1; ++t) {
        const int64_t b = t / n;
        const int64_t i = t % n;
        const float* dsblk = ds + b * m * n;
        const float* qblk = q + b * m * d;
        float* dkrow = dk + t * d;
        for (int64_t p = causal ? i : 0; p < m; ++p) {
          const float av = dsblk[p * n + i] * scale;
          if (av == 0.0f) continue;
          const float* qrow = qblk + p * d;
          for (int64_t c = 0; c < d; ++c) dkrow[c] += av * qrow[c];
        }
      }
    });
  }
}

}  // namespace stisan::kernels
