#include "tensor/kernels_simd.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#if defined(__x86_64__) || defined(__amd64__)
#define STISAN_SIMD_X86 1
#include <immintrin.h>
#endif

namespace stisan::kernels::simd {

#if STISAN_SIMD_X86

namespace {

// ---- AVX2 + FMA ------------------------------------------------------------
// Every function carries the target attribute so the file builds with the
// project's baseline flags and the AVX2 code paths are gated purely by the
// runtime __builtin_cpu_supports check in Available().

#define STISAN_AVX2 __attribute__((target("avx2,fma")))

STISAN_AVX2 inline float ReduceAdd(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_movehdup_ps(lo));
  return _mm_cvtss_f32(lo);
}

STISAN_AVX2 inline float ReduceMax(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_max_ps(lo, hi);
  lo = _mm_max_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_max_ss(lo, _mm_movehdup_ps(lo));
  return _mm_cvtss_f32(lo);
}

STISAN_AVX2 inline float DotAvx2(const float* a, const float* b, int64_t k) {
  __m256 acc = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= k; i += 8)
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc);
  float s = ReduceAdd(acc);
  for (; i < k; ++i) s += a[i] * b[i];
  return s;
}

STISAN_AVX2 inline void AxpyAvx2(float av, const float* x, float* y,
                                 int64_t n) {
  const __m256 va = _mm256_set1_ps(av);
  int64_t j = 0;
  for (; j + 8 <= n; j += 8)
    _mm256_storeu_ps(
        y + j, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + j),
                               _mm256_loadu_ps(y + j)));
  for (; j < n; ++j) y[j] += av * x[j];
}

// Vectorized e^x (cephes-style range reduction + degree-5 polynomial, the
// classic avx_mathfun formulation). Max relative error ~2 ulp over the
// clamped range — well inside the SIMD-vs-scalar tolerance this backend
// promises. Inputs are clamped so the 2^n scaling below never overflows the
// exponent field.
STISAN_AVX2 inline __m256 Exp256(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  x = _mm256_min_ps(x, _mm256_set1_ps(88.3762626647950f));
  x = _mm256_max_ps(x, _mm256_set1_ps(-88.3762626647949f));
  __m256 fx = _mm256_fmadd_ps(x, _mm256_set1_ps(1.44269504088896341f),
                              _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);
  x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(0.693359375f)));
  x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(-2.12194440e-4f)));
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, z, x);
  y = _mm256_add_ps(y, one);
  __m256i n = _mm256_cvttps_epi32(fx);
  n = _mm256_add_epi32(n, _mm256_set1_epi32(0x7f));
  n = _mm256_slli_epi32(n, 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(n));
}

// One register-blocked strip of a C row: LANES 8-wide accumulators
// (LANES*8 consecutive columns) live in ymm registers across the whole
// k-reduction, so the C row is loaded and stored exactly once instead of
// per k-step. The per-element accumulation order (sequential over p at
// fixed absolute columns) is identical to the plain axpy formulation, so
// the determinism contract is unchanged. `a_stride` walks A's k axis: 1
// for row-major A[i,:], m for transposed-A columns.
template <int kLanes>
STISAN_AVX2 inline void GemmRowStripAvx2(const float* a_base,
                                         int64_t a_stride, const float* b,
                                         int64_t n, float* c_strip,
                                         int64_t k) {
  __m256 acc[kLanes];
  for (int l = 0; l < kLanes; ++l)
    acc[l] = _mm256_loadu_ps(c_strip + 8 * l);
  for (int64_t p = 0; p < k; ++p) {
    const float av = a_base[p * a_stride];
    if (av == 0.0f) continue;  // fmadd(0, b, c) == c, so skipping is exact
    const __m256 va = _mm256_set1_ps(av);
    const float* brow = b + p * n;
    for (int l = 0; l < kLanes; ++l)
      acc[l] = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow + 8 * l), acc[l]);
  }
  for (int l = 0; l < kLanes; ++l)
    _mm256_storeu_ps(c_strip + 8 * l, acc[l]);
}

// c[i, j0..n) += Σ_p a_val(p) · b[p, j0..n) over column strips of up to 8
// lanes (64 columns) plus a scalar tail.
STISAN_AVX2 void GemmRowAccumAvx2(const float* a_base, int64_t a_stride,
                                  const float* b, float* crow, int64_t k,
                                  int64_t n) {
  int64_t j0 = 0;
  while (n - j0 >= 8) {
    const int64_t lanes = std::min<int64_t>((n - j0) / 8, 8);
    const float* bcol = b + j0;
    float* cstrip = crow + j0;
    switch (lanes) {
      case 8: GemmRowStripAvx2<8>(a_base, a_stride, bcol, n, cstrip, k); break;
      case 7: GemmRowStripAvx2<7>(a_base, a_stride, bcol, n, cstrip, k); break;
      case 6: GemmRowStripAvx2<6>(a_base, a_stride, bcol, n, cstrip, k); break;
      case 5: GemmRowStripAvx2<5>(a_base, a_stride, bcol, n, cstrip, k); break;
      case 4: GemmRowStripAvx2<4>(a_base, a_stride, bcol, n, cstrip, k); break;
      case 3: GemmRowStripAvx2<3>(a_base, a_stride, bcol, n, cstrip, k); break;
      case 2: GemmRowStripAvx2<2>(a_base, a_stride, bcol, n, cstrip, k); break;
      default: GemmRowStripAvx2<1>(a_base, a_stride, bcol, n, cstrip, k);
    }
    j0 += lanes * 8;
  }
  for (int64_t j = j0; j < n; ++j) {
    float s = crow[j];
    for (int64_t p = 0; p < k; ++p) {
      const float av = a_base[p * a_stride];
      if (av == 0.0f) continue;
      s += av * b[p * n + j];
    }
    crow[j] = s;
  }
}

// B is always [k,n] here (kernels.cc packs a transposed B first); A is
// [m,k], or [k,m] when ta, whose row i is then column i, read at stride m.
STISAN_AVX2 void GemmRowRangeAvx2(const float* a, const float* b, float* c,
                                  int64_t m, int64_t k, int64_t n, bool ta,
                                  int64_t i0, int64_t i1) {
  for (int64_t i = i0; i < i1; ++i) {
    GemmRowAccumAvx2(ta ? a + i : a + i * k, ta ? m : 1, b, c + i * n, k, n);
  }
}

// y = softmax(x) over one row of length d. x may alias y: the max pass only
// reads x, the exp pass is elementwise, the scale pass only touches y. A
// row shorter than one vector runs wholly in the scalar tails, which
// compute exactly what the scalar kernel does.
STISAN_AVX2 void RowSoftmaxAvx2(const float* x, float* y, int64_t d) {
  float mx = x[0];
  int64_t j = 1;
  if (d >= 8) {
    __m256 vmx = _mm256_loadu_ps(x);
    for (j = 8; j + 8 <= d; j += 8)
      vmx = _mm256_max_ps(vmx, _mm256_loadu_ps(x + j));
    mx = ReduceMax(vmx);
  }
  for (; j < d; ++j) mx = std::max(mx, x[j]);
  const __m256 vm = _mm256_set1_ps(mx);
  __m256 vsum = _mm256_setzero_ps();
  for (j = 0; j + 8 <= d; j += 8) {
    const __m256 e = Exp256(_mm256_sub_ps(_mm256_loadu_ps(x + j), vm));
    _mm256_storeu_ps(y + j, e);
    vsum = _mm256_add_ps(vsum, e);
  }
  float sum = ReduceAdd(vsum);
  for (; j < d; ++j) {
    y[j] = std::exp(x[j] - mx);
    sum += y[j];
  }
  const __m256 vinv = _mm256_set1_ps(1.0f / sum);
  const float inv = 1.0f / sum;
  for (j = 0; j + 8 <= d; j += 8)
    _mm256_storeu_ps(y + j, _mm256_mul_ps(_mm256_loadu_ps(y + j), vinv));
  for (; j < d; ++j) y[j] *= inv;
}

STISAN_AVX2 void LayerNormRowAvx2(const float* xr, const float* gamma,
                                  const float* beta, float* yr, float* mu,
                                  float* is_out, int64_t d, float eps) {
  __m256 vsum = _mm256_setzero_ps();
  int64_t j = 0;
  for (; j + 8 <= d; j += 8)
    vsum = _mm256_add_ps(vsum, _mm256_loadu_ps(xr + j));
  float m = ReduceAdd(vsum);
  for (; j < d; ++j) m += xr[j];
  m /= static_cast<float>(d);
  const __m256 vmean = _mm256_set1_ps(m);
  __m256 vvar = _mm256_setzero_ps();
  for (j = 0; j + 8 <= d; j += 8) {
    const __m256 cdiff = _mm256_sub_ps(_mm256_loadu_ps(xr + j), vmean);
    vvar = _mm256_fmadd_ps(cdiff, cdiff, vvar);
  }
  float var = ReduceAdd(vvar);
  for (; j < d; ++j) {
    const float c = xr[j] - m;
    var += c * c;
  }
  var /= static_cast<float>(d);
  const float is = 1.0f / std::sqrt(var + eps);
  *mu = m;
  *is_out = is;
  const __m256 vis = _mm256_set1_ps(is);
  for (j = 0; j + 8 <= d; j += 8) {
    const __m256 centered = _mm256_sub_ps(_mm256_loadu_ps(xr + j), vmean);
    const __m256 scaled =
        _mm256_mul_ps(_mm256_loadu_ps(gamma + j), centered);
    _mm256_storeu_ps(
        yr + j, _mm256_fmadd_ps(scaled, vis, _mm256_loadu_ps(beta + j)));
  }
  for (; j < d; ++j) yr[j] = gamma[j] * (xr[j] - m) * is + beta[j];
}

STISAN_AVX2 void AttentionRowAvx2(const float* qrow, const float* kblk,
                                  const float* vblk, const float* brow,
                                  const float* mrow, float* prow, float* orow,
                                  int64_t bound, int64_t d, float scale) {
  for (int64_t j = 0; j < bound; ++j) {
    float x = DotAvx2(qrow, kblk + j * d, d) * scale;
    if (brow != nullptr) x += brow[j];
    prow[j] = x;
  }
  RowSoftmaxAvx2(prow, prow, bound);
  std::fill(orow, orow + d, 0.0f);
  for (int64_t j = 0; j < bound; ++j) {
    float av = prow[j];
    if (mrow != nullptr) av *= mrow[j];
    if (av == 0.0f) continue;
    AxpyAvx2(av, vblk + j * d, orow, d);
  }
}

}  // namespace

bool Available() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }();
  return has;
}

const char* Name() { return "avx2"; }

void GemmRowRange(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n, bool ta, int64_t i0, int64_t i1) {
  GemmRowRangeAvx2(a, b, c, m, k, n, ta, i0, i1);
}

void SoftmaxRowRange(const float* x, float* y, int64_t d, int64_t r0,
                     int64_t r1) {
  for (int64_t r = r0; r < r1; ++r) RowSoftmaxAvx2(x + r * d, y + r * d, d);
}

void LayerNormRowRange(const float* x, const float* gamma, const float* beta,
                       float* y, float* mu, float* inv_sigma, int64_t d,
                       float eps, int64_t r0, int64_t r1) {
  for (int64_t r = r0; r < r1; ++r) {
    LayerNormRowAvx2(x + r * d, gamma, beta, y + r * d, mu + r,
                     inv_sigma + r, d, eps);
  }
}

void AttentionRow(const float* qrow, const float* kblk, const float* vblk,
                  const float* brow, const float* mrow, float* prow,
                  float* orow, int64_t bound, int64_t d, float scale) {
  AttentionRowAvx2(qrow, kblk, vblk, brow, mrow, prow, orow, bound, d, scale);
}

#else  // !STISAN_SIMD_X86

// No vector backend on this target: Available() is false, so kernels.cc
// never calls the entry points below.
bool Available() { return false; }
const char* Name() { return "scalar"; }
void GemmRowRange(const float*, const float*, float*, int64_t, int64_t,
                  int64_t, bool, int64_t, int64_t) {
  std::abort();
}
void SoftmaxRowRange(const float*, float*, int64_t, int64_t, int64_t) {
  std::abort();
}
void LayerNormRowRange(const float*, const float*, const float*, float*,
                       float*, float*, int64_t, float, int64_t, int64_t) {
  std::abort();
}
void AttentionRow(const float*, const float*, const float*, const float*,
                  const float*, float*, float*, int64_t, int64_t, float) {
  std::abort();
}

#endif  // STISAN_SIMD_X86

}  // namespace stisan::kernels::simd
