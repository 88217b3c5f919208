#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/kernels.h"

namespace stisan {
namespace ops {
namespace {

using internal::TensorImpl;
using internal::TensorImplPtr;

// Creates a result node wired to its parents. The backward function is only
// attached when grad recording is on and at least one parent needs grads.
// The node owns fresh dense storage.
Tensor MakeNode(Shape shape, std::vector<TensorImplPtr> parents,
                std::function<void(TensorImpl&)> backward) {
  auto impl = std::make_shared<TensorImpl>();
  const int64_t n = NumElements(shape);
  impl->strides = ContiguousStrides(shape);
  impl->shape = std::move(shape);
  impl->storage = std::make_shared<internal::Storage>();
  impl->storage->data.assign(static_cast<size_t>(n), 0.0f);
  bool needs = false;
  if (internal::GradEnabled()) {
    for (const auto& p : parents)
      if (p && p->requires_grad) needs = true;
  }
  impl->requires_grad = needs;
  if (needs) {
    impl->parents = std::move(parents);
    impl->backward_fn = std::move(backward);
  }
  return Tensor(std::move(impl));
}

// Creates a zero-copy view sharing `base`'s storage. Views are
// grad-transparent: their grad region aliases the base's, so they carry a
// parent edge (to keep the base reachable in the topological sweep) but no
// backward function.
Tensor MakeView(const TensorImplPtr& base, Shape shape,
                std::vector<int64_t> strides, int64_t offset) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->strides = std::move(strides);
  impl->offset = offset;
  impl->storage = base->storage;
  impl->requires_grad = base->requires_grad && internal::GradEnabled();
  if (impl->requires_grad) impl->parents = {base};
  return Tensor(std::move(impl));
}

// Iterates a strided index space in logical row-major order, calling
// fn(dense_flat, storage_flat).
template <typename Fn>
void ForEachStrided(const Shape& shape, const std::vector<int64_t>& strides,
                    int64_t offset, Fn&& fn) {
  const int64_t n = NumElements(shape);
  if (n == 0) return;
  const size_t rank = shape.size();
  std::vector<int64_t> idx(rank, 0);
  int64_t ofs = offset;
  for (int64_t flat = 0; flat < n; ++flat) {
    fn(flat, ofs);
    for (size_t d = rank; d-- > 0;) {
      idx[d]++;
      ofs += strides[d];
      if (idx[d] < shape[d]) break;
      ofs -= strides[d] * shape[d];
      idx[d] = 0;
    }
  }
}

// ---- Broadcasting machinery ------------------------------------------------

Shape BroadcastShape(const Shape& a, const Shape& b) {
  const size_t rank = std::max(a.size(), b.size());
  Shape out(rank, 1);
  for (size_t i = 0; i < rank; ++i) {
    const int64_t da = i < a.size() ? a[a.size() - 1 - i] : 1;
    const int64_t db = i < b.size() ? b[b.size() - 1 - i] : 1;
    STISAN_CHECK_MSG(da == db || da == 1 || db == 1,
                     "incompatible broadcast " << ShapeToString(a) << " vs "
                                               << ShapeToString(b));
    out[rank - 1 - i] = std::max(da, db);
  }
  return out;
}

// Row-major strides; broadcast (size-1) dims get stride 0 when aligned to a
// larger output shape.
std::vector<int64_t> BroadcastStrides(const Shape& in, const Shape& out) {
  std::vector<int64_t> strides(out.size(), 0);
  int64_t stride = 1;
  for (size_t i = 0; i < in.size(); ++i) {
    const size_t d = in.size() - 1 - i;
    const size_t od = out.size() - 1 - i;
    strides[od] = (in[d] == 1) ? 0 : stride;
    stride *= in[d];
  }
  return strides;
}

// Iterates the output index space of `out_shape` calling
// fn(out_flat, a_flat, b_flat). Offsets are dense (both operands must be
// contiguous; pointers already include the view offset).
template <typename Fn>
void ForEachBroadcast(const Shape& out_shape, const Shape& a_shape,
                      const Shape& b_shape, Fn&& fn) {
  const int64_t n = NumElements(out_shape);
  const size_t rank = out_shape.size();
  if (n == 0) return;
  const auto sa = BroadcastStrides(a_shape, out_shape);
  const auto sb = BroadcastStrides(b_shape, out_shape);
  std::vector<int64_t> idx(rank, 0);
  int64_t ofs_a = 0;
  int64_t ofs_b = 0;
  for (int64_t flat = 0; flat < n; ++flat) {
    fn(flat, ofs_a, ofs_b);
    // Increment the multi-index (row-major) and update offsets.
    for (size_t d = rank; d-- > 0;) {
      idx[d]++;
      ofs_a += sa[d];
      ofs_b += sb[d];
      if (idx[d] < out_shape[d]) break;
      ofs_a -= sa[d] * out_shape[d];
      ofs_b -= sb[d] * out_shape[d];
      idx[d] = 0;
    }
  }
}

bool SameShape(const Shape& a, const Shape& b) { return a == b; }

// True when b broadcasts as a trailing vector: a=[..., d], b=[d] (or
// [1,...,1,d]).
bool IsTrailingVector(const Shape& a, const Shape& b) {
  if (a.empty() || b.empty()) return false;
  if (b.back() != a.back()) return false;
  for (size_t i = 0; i + 1 < b.size(); ++i)
    if (b[i] != 1) return false;
  return true;
}

// Generic elementwise binary op with fwd(a_val, b_val) and backward partials
// dfa(g, a, b, out) / dfb(g, a, b, out) evaluated per element.
template <typename Fwd, typename DA, typename DB>
Tensor BinaryOp(const Tensor& a_in, const Tensor& b_in, Fwd fwd, DA dfa,
                DB dfb) {
  STISAN_CHECK(a_in.defined() && b_in.defined());
  const Tensor a = Contiguous(a_in);
  const Tensor b = Contiguous(b_in);
  const Shape out_shape = BroadcastShape(a.shape(), b.shape());
  auto ai = a.impl();
  auto bi = b.impl();
  Tensor out = MakeNode(
      out_shape, {ai, bi},
      [ai, bi, dfa, dfb, out_shape](TensorImpl& self) {
        const bool need_a = ai->requires_grad;
        const bool need_b = bi->requires_grad;
        if (need_a) ai->EnsureGrad();
        if (need_b) bi->EnsureGrad();
        const float* sg = self.Grad();
        const float* sd = self.Data();
        const float* ad = ai->Data();
        const float* bd = bi->Data();
        float* ag = need_a ? ai->Grad() : nullptr;
        float* bg = need_b ? bi->Grad() : nullptr;
        if (SameShape(ai->shape, bi->shape)) {
          // Threading is safe only when the two grad regions cannot overlap
          // element-wise across chunk boundaries (views of one storage may).
          const bool disjoint =
              !(need_a && need_b) || ai->storage.get() != bi->storage.get();
          const auto chunk = [&](int64_t i0, int64_t i1) {
            for (int64_t i = i0; i < i1; ++i) {
              const float g = sg[i];
              if (ag != nullptr) ag[i] += dfa(g, ad[i], bd[i], sd[i]);
              if (bg != nullptr) bg[i] += dfb(g, ad[i], bd[i], sd[i]);
            }
          };
          if (disjoint) {
            kernels::ParallelRanges(self.numel(), 2, chunk);
          } else {
            chunk(0, self.numel());
          }
          return;
        }
        ForEachBroadcast(out_shape, ai->shape, bi->shape,
                         [&](int64_t o, int64_t ia, int64_t ib) {
                           const float g = sg[o];
                           if (ag != nullptr)
                             ag[ia] += dfa(g, ad[ia], bd[ib], sd[o]);
                           if (bg != nullptr)
                             bg[ib] += dfb(g, ad[ia], bd[ib], sd[o]);
                         });
      });
  float* od = out.data();
  const float* ad = a.data();
  const float* bd = b.data();
  if (SameShape(a.shape(), b.shape())) {
    kernels::ParallelRanges(out.numel(), 1, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) od[i] = fwd(ad[i], bd[i]);
    });
  } else if (IsTrailingVector(a.shape(), b.shape())) {
    const int64_t d = a.shape().back();
    const int64_t rows = a.numel() / d;
    kernels::ParallelRanges(rows, d, [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r)
        for (int64_t c = 0; c < d; ++c)
          od[r * d + c] = fwd(ad[r * d + c], bd[c]);
    });
  } else {
    ForEachBroadcast(out_shape, a.shape(), b.shape(),
                     [&](int64_t o, int64_t ia, int64_t ib) {
                       od[o] = fwd(ad[ia], bd[ib]);
                     });
  }
  return out;
}

// Generic elementwise unary op.
template <typename Fwd, typename Bwd>
Tensor UnaryOp(const Tensor& a_in, Fwd fwd, Bwd bwd) {
  STISAN_CHECK(a_in.defined());
  const Tensor a = Contiguous(a_in);
  auto ai = a.impl();
  Tensor out = MakeNode(a.shape(), {ai}, [ai, bwd](TensorImpl& self) {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    const float* sg = self.Grad();
    const float* sd = self.Data();
    const float* ad = ai->Data();
    float* ag = ai->Grad();
    kernels::ParallelRanges(self.numel(), 2, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) ag[i] += bwd(sg[i], ad[i], sd[i]);
    });
  });
  const float* ad = a.data();
  float* od = out.data();
  kernels::ParallelRanges(a.numel(), 1, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) od[i] = fwd(ad[i]);
  });
  return out;
}

// True for a 2-D view that is TransposeLast2 of a dense [n,k] block: shape
// [k,n] with strides {1,k}. MatMul consumes these in place via Gemm's tb
// flag instead of materialising.
bool IsTransposed2DView(const TensorImpl& t) {
  return t.shape.size() == 2 && t.shape[0] > 1 && t.shape[1] > 1 &&
         t.strides[0] == 1 && t.strides[1] == t.shape[0];
}

// The batched analogue: TransposeLast2 of a dense [b,n,k] block, i.e. shape
// [b,k,n] with strides {k*n, 1, k}. BatchedGemm reads it via tb, with the
// same per-element accumulation order as the fused 2-D path.
bool IsTransposedBatchedView(const TensorImpl& t) {
  return t.shape.size() == 3 && t.shape[1] > 1 && t.shape[2] > 1 &&
         t.strides[0] == t.shape[1] * t.shape[2] && t.strides[1] == 1 &&
         t.strides[2] == t.shape[1];
}

}  // namespace

// ---- Contiguity -------------------------------------------------------------

Tensor Contiguous(const Tensor& a) {
  STISAN_CHECK(a.defined());
  if (a.IsContiguous()) return a;
  auto ai = a.impl();
  const Shape shape = ai->shape;
  const std::vector<int64_t> strides = ai->strides;
  const int64_t offset = ai->offset;
  Tensor out = MakeNode(
      shape, {ai}, [ai, shape, strides, offset](TensorImpl& self) {
        if (!ai->requires_grad) return;
        ai->EnsureGrad();
        // Scatter-accumulate the dense grad back through the view's strides
        // into the base storage. This is the single place view gradients are
        // routed; pure views alias the base grad region and need nothing.
        float* base_grad = ai->storage->grad.data();
        const float* sg = self.Grad();
        ForEachStrided(shape, strides, offset,
                       [&](int64_t dense, int64_t st) {
                         base_grad[st] += sg[dense];
                       });
      });
  float* od = out.data();
  const float* base = ai->storage->data.data();
  ForEachStrided(shape, strides, offset, [&](int64_t dense, int64_t st) {
    od[dense] = base[st];
  });
  return out;
}

// ---- Elementwise binary -------------------------------------------------------

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      a, b, [](float x, float y) { return x + y; },
      [](float g, float, float, float) { return g; },
      [](float g, float, float, float) { return g; });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      a, b, [](float x, float y) { return x - y; },
      [](float g, float, float, float) { return g; },
      [](float g, float, float, float) { return -g; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      a, b, [](float x, float y) { return x * y; },
      [](float g, float, float y, float) { return g * y; },
      [](float g, float x, float, float) { return g * x; });
}

// ---- Scalar ----------------------------------------------------------------------

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp(
      a, [s](float x) { return x + s; },
      [](float g, float, float) { return g; });
}

Tensor MulScalar(const Tensor& a, float s) {
  return UnaryOp(
      a, [s](float x) { return x * s; },
      [s](float g, float, float) { return g * s; });
}

// ---- Unary ------------------------------------------------------------------------

Tensor Neg(const Tensor& a) { return MulScalar(a, -1.0f); }

Tensor Relu(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float g, float x, float) { return x > 0.0f ? g : 0.0f; });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(
      a,
      [](float x) {
        return x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                         : std::exp(x) / (1.0f + std::exp(x));
      },
      [](float g, float, float y) { return g * y * (1.0f - y); });
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::tanh(x); },
      [](float g, float, float y) { return g * (1.0f - y * y); });
}

Tensor Square(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return x * x; },
      [](float g, float x, float) { return 2.0f * g * x; });
}

Tensor LogSigmoid(const Tensor& a) {
  return UnaryOp(
      a,
      [](float x) {
        // log sigmoid(x) = -softplus(-x)
        return -(std::max(-x, 0.0f) + std::log1p(std::exp(-std::fabs(x))));
      },
      [](float g, float x, float) {
        const float s = x >= 0.0f ? std::exp(-x) / (1.0f + std::exp(-x))
                                  : 1.0f / (1.0f + std::exp(x));
        return g * s;  // sigmoid(-x)
      });
}

// ---- Matrix ------------------------------------------------------------------------

Tensor MatMul(const Tensor& a_in, const Tensor& b_in) {
  STISAN_CHECK(a_in.defined() && b_in.defined());
  const Shape sa = a_in.shape();
  const Shape sb = b_in.shape();

  if (sa.size() == 2 && sb.size() == 2) {
    const int64_t m = sa[0], k = sa[1], n = sb[1];
    STISAN_CHECK_EQ(k, sb[0]);
    const Tensor a = Contiguous(a_in);
    auto ai = a.impl();

    // Fast path: b is a TransposeLast2 view of a dense [n,k] block. Read the
    // block with Gemm's tb flag; the backward writes dB straight into the
    // base's [n,k] grad region (the view is grad-transparent).
    if (!b_in.IsContiguous() && IsTransposed2DView(*b_in.impl())) {
      auto bi = b_in.impl();
      Tensor out =
          MakeNode({m, n}, {ai, bi}, [ai, bi, m, k, n](TensorImpl& self) {
            if (ai->requires_grad) {
              ai->EnsureGrad();
              // dA = G x Base, with Base the dense [n,k] block.
              kernels::Gemm(self.Grad(), bi->Data(), ai->Grad(), m, n, k,
                            false, false, true);
            }
            if (bi->requires_grad) {
              bi->EnsureGrad();
              // dBase = G^T x A, a dense [n,k] result at the view's offset.
              kernels::Gemm(self.Grad(), ai->Data(), bi->Grad(), n, m, k,
                            true, false, true);
            }
          });
      kernels::Gemm(ai->Data(), bi->Data(), out.data(), m, k, n, false, true,
                    false);
      return out;
    }

    const Tensor b = Contiguous(b_in);
    auto bi = b.impl();
    Tensor out2d =
        MakeNode({m, n}, {ai, bi}, [ai, bi, m, k, n](TensorImpl& self) {
          if (ai->requires_grad) {
            ai->EnsureGrad();
            kernels::Gemm(self.Grad(), bi->Data(), ai->Grad(), m, n, k, false,
                          true, true);  // dA = G x B^T
          }
          if (bi->requires_grad) {
            bi->EnsureGrad();
            kernels::Gemm(ai->Data(), self.Grad(), bi->Grad(), k, m, n, true,
                          false, true);  // dB = A^T x G
          }
        });
    kernels::Gemm(ai->Data(), bi->Data(), out2d.data(), m, k, n, false, false,
                  false);
    return out2d;
  }

  if (sa.size() == 3 && sb.size() == 3) {
    const int64_t bsz = sa[0], m = sa[1], k = sa[2], n = sb[2];
    STISAN_CHECK_EQ(bsz, sb[0]);
    STISAN_CHECK_EQ(k, sb[1]);
    const Tensor a = Contiguous(a_in);

    // Fast path: b is a TransposeLast2 view of a dense [bsz,n,k] block.
    // Read it in place via BatchedGemm's tb flag (the batched mirror of the
    // 2-D fast path above); the backward writes dB straight into the base's
    // [bsz,n,k] grad region.
    if (!b_in.IsContiguous() && IsTransposedBatchedView(*b_in.impl())) {
      auto ai = a.impl();
      auto bi = b_in.impl();
      Tensor out = MakeNode(
          {bsz, m, n}, {ai, bi},
          [ai, bi, bsz, m, k, n](TensorImpl& self) {
            if (ai->requires_grad) {
              ai->EnsureGrad();
              // dA[t] = G[t] x Base[t], Base the dense [n,k] block.
              kernels::BatchedGemm(self.Grad(), bi->Data(), ai->Grad(), bsz,
                                   m, n, k, false, false, true);
            }
            if (bi->requires_grad) {
              bi->EnsureGrad();
              // dBase[t] = G[t]^T x A[t], a dense [n,k] result per slice.
              kernels::BatchedGemm(self.Grad(), ai->Data(), bi->Grad(), bsz,
                                   n, m, k, true, false, true);
            }
          });
      kernels::BatchedGemm(ai->Data(), bi->Data(), out.data(), bsz, m, k, n,
                           false, true, false);
      return out;
    }

    const Tensor b = Contiguous(b_in);
    auto ai = a.impl();
    auto bi = b.impl();
    Tensor out = MakeNode(
        {bsz, m, n}, {ai, bi},
        [ai, bi, bsz, m, k, n](TensorImpl& self) {
          if (ai->requires_grad) {
            ai->EnsureGrad();
            kernels::BatchedGemm(self.Grad(), bi->Data(), ai->Grad(), bsz, m,
                                 n, k, false, true, true);
          }
          if (bi->requires_grad) {
            bi->EnsureGrad();
            kernels::BatchedGemm(ai->Data(), self.Grad(), bi->Grad(), bsz, k,
                                 m, n, true, false, true);
          }
        });
    kernels::BatchedGemm(ai->Data(), bi->Data(), out.data(), bsz, m, k, n,
                         false, false, false);
    return out;
  }

  if (sa.size() == 3 && sb.size() == 2) {
    // Shared right operand: flatten the batch (zero-copy for contiguous a).
    const int64_t bsz = sa[0], m = sa[1], k = sa[2];
    Tensor flat = Reshape(a_in, {bsz * m, k});
    Tensor out = MatMul(flat, b_in);
    return Reshape(out, {bsz, m, sb[1]});
  }

  STISAN_CHECK_MSG(false, "MatMul: unsupported ranks " << ShapeToString(sa)
                                                       << " x "
                                                       << ShapeToString(sb));
  return Tensor();
}

Tensor TransposeLast2(const Tensor& a) {
  STISAN_CHECK(a.defined());
  auto ai = a.impl();
  const size_t rank = ai->shape.size();
  STISAN_CHECK_GE(rank, 2u);
  Shape out_shape = ai->shape;
  std::vector<int64_t> out_strides = ai->strides;
  std::swap(out_shape[rank - 1], out_shape[rank - 2]);
  std::swap(out_strides[rank - 1], out_strides[rank - 2]);
  return MakeView(ai, std::move(out_shape), std::move(out_strides), ai->offset);
}

// ---- Shape ---------------------------------------------------------------------------

Tensor Reshape(const Tensor& a_in, Shape new_shape) {
  STISAN_CHECK(a_in.defined());
  STISAN_CHECK_EQ(NumElements(new_shape), a_in.numel());
  const Tensor a = Contiguous(a_in);
  auto ai = a.impl();
  std::vector<int64_t> strides = ContiguousStrides(new_shape);
  return MakeView(ai, std::move(new_shape), std::move(strides), ai->offset);
}

Tensor Concat(const Tensor& a_in, const Tensor& b_in, int64_t dim) {
  STISAN_CHECK(a_in.defined() && b_in.defined());
  const Tensor a = Contiguous(a_in);
  const Tensor b = Contiguous(b_in);
  const Shape& sa = a.shape();
  const Shape& sb = b.shape();
  STISAN_CHECK_EQ(sa.size(), sb.size());
  if (dim < 0) dim += static_cast<int64_t>(sa.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    if (static_cast<int64_t>(i) != dim) {
      STISAN_CHECK_EQ(sa[i], sb[i]);
    }
  }
  Shape out_shape = sa;
  out_shape[dim] += sb[dim];

  // View both tensors as [outer, mid, inner] with mid the concat axis.
  int64_t outer = 1, inner = 1;
  for (int64_t i = 0; i < dim; ++i) outer *= sa[i];
  for (size_t i = dim + 1; i < sa.size(); ++i) inner *= sa[i];
  const int64_t ma = sa[dim], mb = sb[dim];

  auto ai = a.impl();
  auto bi = b.impl();
  Tensor out = MakeNode(
      out_shape, {ai, bi},
      [ai, bi, outer, inner, ma, mb](TensorImpl& self) {
        const int64_t mo = ma + mb;
        if (ai->requires_grad) ai->EnsureGrad();
        if (bi->requires_grad) bi->EnsureGrad();
        for (int64_t o = 0; o < outer; ++o) {
          const float* g = self.Grad() + o * mo * inner;
          if (ai->requires_grad) {
            float* ga = ai->Grad() + o * ma * inner;
            for (int64_t i = 0; i < ma * inner; ++i) ga[i] += g[i];
          }
          if (bi->requires_grad) {
            float* gb = bi->Grad() + o * mb * inner;
            for (int64_t i = 0; i < mb * inner; ++i)
              gb[i] += g[ma * inner + i];
          }
        }
      });
  float* od = out.data();
  const float* ad = a.data();
  const float* bd = b.data();
  const int64_t mo = ma + mb;
  for (int64_t o = 0; o < outer; ++o) {
    std::memcpy(od + o * mo * inner, ad + o * ma * inner,
                sizeof(float) * ma * inner);
    std::memcpy(od + o * mo * inner + ma * inner, bd + o * mb * inner,
                sizeof(float) * mb * inner);
  }
  return out;
}

Tensor Slice(const Tensor& a, int64_t dim, int64_t start, int64_t end) {
  STISAN_CHECK(a.defined());
  auto ai = a.impl();
  const Shape& s = ai->shape;
  if (dim < 0) dim += static_cast<int64_t>(s.size());
  STISAN_CHECK_GE(dim, 0);
  STISAN_CHECK_LT(dim, static_cast<int64_t>(s.size()));
  STISAN_CHECK_GE(start, 0);
  STISAN_CHECK_LE(end, s[dim]);
  STISAN_CHECK_LT(start, end);
  Shape out_shape = s;
  out_shape[dim] = end - start;
  return MakeView(ai, std::move(out_shape), ai->strides,
                  ai->offset + start * ai->strides[dim]);
}

Tensor Stack0(const std::vector<Tensor>& parts_in) {
  STISAN_CHECK(!parts_in.empty());
  std::vector<Tensor> parts;
  parts.reserve(parts_in.size());
  for (const auto& p : parts_in) parts.push_back(Contiguous(p));
  const Shape& s0 = parts[0].shape();
  for (const auto& p : parts) STISAN_CHECK(p.shape() == s0);
  Shape out_shape;
  out_shape.push_back(static_cast<int64_t>(parts.size()));
  out_shape.insert(out_shape.end(), s0.begin(), s0.end());

  std::vector<TensorImplPtr> parents;
  parents.reserve(parts.size());
  for (const auto& p : parts) parents.push_back(p.impl());
  const int64_t chunk = parts[0].numel();
  auto parents_copy = parents;
  Tensor out = MakeNode(
      out_shape, std::move(parents),
      [parents_copy, chunk](TensorImpl& self) {
        for (size_t t = 0; t < parents_copy.size(); ++t) {
          auto& p = parents_copy[t];
          if (!p->requires_grad) continue;
          p->EnsureGrad();
          const float* g = self.Grad() + t * chunk;
          float* pg = p->Grad();
          for (int64_t i = 0; i < chunk; ++i) pg[i] += g[i];
        }
      });
  float* od = out.data();
  for (size_t t = 0; t < parts.size(); ++t)
    std::memcpy(od + t * chunk, parts[t].data(), sizeof(float) * chunk);
  return out;
}

Tensor Unfold1D(const Tensor& a_in, int64_t window) {
  STISAN_CHECK(a_in.defined());
  STISAN_CHECK_EQ(a_in.dim(), 2);
  const Tensor a = Contiguous(a_in);
  const int64_t n = a.size(0);
  const int64_t d = a.size(1);
  STISAN_CHECK_GE(n, window);
  STISAN_CHECK_GE(window, 1);
  const int64_t rows = n - window + 1;
  auto ai = a.impl();
  Tensor out = MakeNode(
      {rows, window * d}, {ai},
      [ai, rows, window, d](TensorImpl& self) {
        if (!ai->requires_grad) return;
        ai->EnsureGrad();
        const float* sg = self.Grad();
        float* ag = ai->Grad();
        for (int64_t r = 0; r < rows; ++r)
          for (int64_t w = 0; w < window; ++w)
            for (int64_t c = 0; c < d; ++c)
              ag[(r + w) * d + c] += sg[r * window * d + w * d + c];
      });
  float* od = out.data();
  const float* ad = a.data();
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t w = 0; w < window; ++w)
      std::memcpy(od + r * window * d + w * d, ad + (r + w) * d,
                  sizeof(float) * d);
  return out;
}

// ---- Reductions -----------------------------------------------------------------------

Tensor Sum(const Tensor& a_in) {
  STISAN_CHECK(a_in.defined());
  const Tensor a = Contiguous(a_in);
  auto ai = a.impl();
  const int64_t n = a.numel();
  Tensor out = MakeNode({1}, {ai}, [ai, n](TensorImpl& self) {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    const float g = self.Grad()[0];
    // Only this view's [numel] range — the storage may be larger (views).
    float* ag = ai->Grad();
    for (int64_t i = 0; i < n; ++i) ag[i] += g;
  });
  float acc = 0.0f;
  const float* ad = a.data();
  for (int64_t i = 0; i < n; ++i) acc += ad[i];
  out.data()[0] = acc;
  return out;
}

Tensor SumDim(const Tensor& a_in, int64_t dim, bool keepdim) {
  STISAN_CHECK(a_in.defined());
  const Tensor a = Contiguous(a_in);
  const Shape& s = a.shape();
  if (dim < 0) dim += static_cast<int64_t>(s.size());
  STISAN_CHECK_GE(dim, 0);
  STISAN_CHECK_LT(dim, static_cast<int64_t>(s.size()));
  int64_t outer = 1, inner = 1;
  for (int64_t i = 0; i < dim; ++i) outer *= s[i];
  for (size_t i = dim + 1; i < s.size(); ++i) inner *= s[i];
  const int64_t mid = s[dim];

  Shape out_shape;
  for (size_t i = 0; i < s.size(); ++i) {
    if (static_cast<int64_t>(i) == dim) {
      if (keepdim) out_shape.push_back(1);
    } else {
      out_shape.push_back(s[i]);
    }
  }
  if (out_shape.empty()) out_shape.push_back(1);

  auto ai = a.impl();
  Tensor out = MakeNode(
      out_shape, {ai}, [ai, outer, inner, mid](TensorImpl& self) {
        if (!ai->requires_grad) return;
        ai->EnsureGrad();
        const float* sg = self.Grad();
        float* ag = ai->Grad();
        for (int64_t o = 0; o < outer; ++o)
          for (int64_t m = 0; m < mid; ++m)
            for (int64_t i = 0; i < inner; ++i)
              ag[(o * mid + m) * inner + i] += sg[o * inner + i];
      });
  float* od = out.data();
  const float* ad = a.data();
  for (int64_t o = 0; o < outer; ++o)
    for (int64_t i = 0; i < inner; ++i) {
      float acc = 0.0f;
      for (int64_t m = 0; m < mid; ++m) acc += ad[(o * mid + m) * inner + i];
      od[o * inner + i] = acc;
    }
  return out;
}

Tensor MaxDim(const Tensor& a_in, int64_t dim, bool keepdim) {
  STISAN_CHECK(a_in.defined());
  const Tensor a = Contiguous(a_in);
  const Shape& s = a.shape();
  if (dim < 0) dim += static_cast<int64_t>(s.size());
  int64_t outer = 1, inner = 1;
  for (int64_t i = 0; i < dim; ++i) outer *= s[i];
  for (size_t i = dim + 1; i < s.size(); ++i) inner *= s[i];
  const int64_t mid = s[dim];
  STISAN_CHECK_GE(mid, 1);

  Shape out_shape;
  for (size_t i = 0; i < s.size(); ++i) {
    if (static_cast<int64_t>(i) == dim) {
      if (keepdim) out_shape.push_back(1);
    } else {
      out_shape.push_back(s[i]);
    }
  }
  if (out_shape.empty()) out_shape.push_back(1);

  auto argmax = std::make_shared<std::vector<int64_t>>(
      static_cast<size_t>(outer * inner));
  auto ai = a.impl();
  Tensor out = MakeNode(
      out_shape, {ai},
      [ai, outer, inner, mid, argmax](TensorImpl& self) {
        if (!ai->requires_grad) return;
        ai->EnsureGrad();
        const float* sg = self.Grad();
        float* ag = ai->Grad();
        for (int64_t o = 0; o < outer; ++o)
          for (int64_t i = 0; i < inner; ++i) {
            const int64_t m = (*argmax)[o * inner + i];
            ag[(o * mid + m) * inner + i] += sg[o * inner + i];
          }
      });
  float* od = out.data();
  const float* ad = a.data();
  for (int64_t o = 0; o < outer; ++o)
    for (int64_t i = 0; i < inner; ++i) {
      float best = ad[o * mid * inner + i];
      int64_t bm = 0;
      for (int64_t m = 1; m < mid; ++m) {
        const float v = ad[(o * mid + m) * inner + i];
        if (v > best) {
          best = v;
          bm = m;
        }
      }
      od[o * inner + i] = best;
      (*argmax)[o * inner + i] = bm;
    }
  return out;
}

// ---- Neural-net specific ----------------------------------------------------------------

Tensor Softmax(const Tensor& a_in) {
  STISAN_CHECK(a_in.defined());
  const Tensor a = Contiguous(a_in);
  const int64_t d = a.shape().back();
  const int64_t rows = a.numel() / d;
  auto ai = a.impl();
  Tensor out = MakeNode(
      a.shape(), {ai}, [ai, rows, d](TensorImpl& self) {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    kernels::SoftmaxBackwardRows(self.Data(), self.Grad(), ai->Grad(), rows,
                                 d);
  });
  kernels::SoftmaxRows(a.data(), out.data(), rows, d);
  return out;
}

Tensor LayerNorm(const Tensor& x_in, const Tensor& gamma_in,
                 const Tensor& beta_in, float eps) {
  STISAN_CHECK(x_in.defined() && gamma_in.defined() && beta_in.defined());
  const Tensor x = Contiguous(x_in);
  const Tensor gamma = Contiguous(gamma_in);
  const Tensor beta = Contiguous(beta_in);
  const int64_t d = x.shape().back();
  STISAN_CHECK_EQ(gamma.numel(), d);
  STISAN_CHECK_EQ(beta.numel(), d);
  const int64_t rows = x.numel() / d;
  auto xi = x.impl();
  auto gi = gamma.impl();
  auto bi = beta.impl();
  // Cache per-row mean and inverse stddev for the backward pass.
  auto mu = std::make_shared<std::vector<float>>(static_cast<size_t>(rows));
  auto inv_sigma =
      std::make_shared<std::vector<float>>(static_cast<size_t>(rows));

  Tensor out = MakeNode(
      x.shape(), {xi, gi, bi},
      [xi, gi, bi, mu, inv_sigma, rows, d](TensorImpl& self) {
        const bool need_x = xi->requires_grad;
        const bool need_g = gi->requires_grad;
        const bool need_b = bi->requires_grad;
        if (need_x) xi->EnsureGrad();
        if (need_g) gi->EnsureGrad();
        if (need_b) bi->EnsureGrad();
        kernels::LayerNormBackwardRows(
            xi->Data(), gi->Data(), mu->data(), inv_sigma->data(),
            self.Grad(), need_x ? xi->Grad() : nullptr, nullptr,
            need_g ? gi->Grad() : nullptr, need_b ? bi->Grad() : nullptr,
            rows, d);
      });
  kernels::LayerNormRows(x.data(), gamma.data(), beta.data(), out.data(),
                         mu->data(), inv_sigma->data(), rows, d, eps);
  return out;
}

Tensor EmbeddingLookup(const Tensor& weight_in,
                       const std::vector<int64_t>& ids, int64_t padding_idx) {
  STISAN_CHECK(weight_in.defined());
  STISAN_CHECK_EQ(weight_in.dim(), 2);
  const Tensor weight = Contiguous(weight_in);
  const int64_t vocab = weight.size(0);
  const int64_t d = weight.size(1);
  const int64_t n = static_cast<int64_t>(ids.size());
  for (int64_t id : ids) {
    STISAN_CHECK_GE(id, 0);
    STISAN_CHECK_LT(id, vocab);
  }
  auto wi = weight.impl();
  auto ids_copy = std::make_shared<std::vector<int64_t>>(ids);
  // Backward is a scatter (duplicate ids collide) — stays serial.
  Tensor out = MakeNode(
      {n, d}, {wi}, [wi, ids_copy, d, padding_idx](TensorImpl& self) {
        if (!wi->requires_grad) return;
        wi->EnsureGrad();
        const float* sg = self.Grad();
        float* wg = wi->Grad();
        for (size_t i = 0; i < ids_copy->size(); ++i) {
          const int64_t id = (*ids_copy)[i];
          if (id == padding_idx) continue;
          const float* g = sg + static_cast<int64_t>(i) * d;
          float* wrow = wg + id * d;
          for (int64_t j = 0; j < d; ++j) wrow[j] += g[j];
        }
      });
  kernels::GatherRows(weight.data(), ids_copy->data(), out.data(), n, d,
                      padding_idx);
  return out;
}

Tensor Dropout(const Tensor& a_in, float p, Rng& rng, bool training) {
  STISAN_CHECK(a_in.defined());
  STISAN_CHECK_GE(p, 0.0f);
  STISAN_CHECK_LT(p, 1.0f);
  if (!training || p == 0.0f) return a_in;
  const Tensor a = Contiguous(a_in);
  const float scale = 1.0f / (1.0f - p);
  // Mask generation consumes the RNG stream sequentially — stays serial.
  auto mask =
      std::make_shared<std::vector<float>>(static_cast<size_t>(a.numel()));
  for (auto& m : *mask) m = rng.Bernoulli(p) ? 0.0f : scale;
  auto ai = a.impl();
  Tensor out = MakeNode(
      a.shape(), {ai}, [ai, mask](TensorImpl& self) {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    const float* sg = self.Grad();
    float* ag = ai->Grad();
    const float* md = mask->data();
    kernels::ParallelRanges(self.numel(), 1, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) ag[i] += sg[i] * md[i];
    });
  });
  const float* ad = a.data();
  float* od = out.data();
  const float* md = mask->data();
  kernels::ParallelRanges(a.numel(), 1, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) od[i] = ad[i] * md[i];
  });
  return out;
}

// ---- Fused attention ----------------------------------------------------------

Tensor FusedAttention(const Tensor& q_in, const Tensor& k_in,
                      const Tensor& v_in, const Tensor& bias_in,
                      const FusedAttentionOptions& options) {
  STISAN_CHECK(q_in.defined() && k_in.defined() && v_in.defined());
  const Tensor q = Contiguous(q_in);
  const Tensor k = Contiguous(k_in);
  const Tensor v = Contiguous(v_in);
  const int64_t rank = q.dim();
  STISAN_CHECK_MSG(rank == 2 || rank == 3,
                   "FusedAttention: rank must be 2 or 3, got "
                       << ShapeToString(q.shape()));
  STISAN_CHECK_EQ(k.dim(), rank);
  STISAN_CHECK(k.shape() == v.shape());
  const int64_t batch = rank == 3 ? q.size(0) : 1;
  const int64_t m = q.size(rank - 2);
  const int64_t n = k.size(rank - 2);
  const int64_t d = q.size(rank - 1);
  STISAN_CHECK_EQ(k.size(rank - 1), d);
  if (rank == 3) STISAN_CHECK_EQ(k.size(0), batch);
  if (options.causal) STISAN_CHECK_EQ(m, n);

  Tensor bias;
  bool bias_broadcast = false;
  if (bias_in.defined()) {
    bias = Contiguous(bias_in);
    if (rank == 3 && bias.dim() == 2) {
      STISAN_CHECK(bias.shape() == (Shape{m, n}));
      bias_broadcast = true;  // shared [m,n] bias over a batched q
    } else {
      const Shape want = rank == 3 ? Shape{batch, m, n} : Shape{m, n};
      STISAN_CHECK_MSG(bias.shape() == want,
                       "FusedAttention: bias shape "
                           << ShapeToString(bias.shape()) << " != "
                           << ShapeToString(want));
    }
  }

  const bool dropout = options.training && options.dropout_p > 0.0f;
  std::shared_ptr<std::vector<float>> drop_mask;
  if (dropout) {
    STISAN_CHECK(options.rng != nullptr);
    STISAN_CHECK_LT(options.dropout_p, 1.0f);
    // Same serial full-tensor draw order as ops::Dropout, so the RNG stream
    // (and therefore training) is identical to the composed path.
    const float keep = 1.0f / (1.0f - options.dropout_p);
    drop_mask = std::make_shared<std::vector<float>>(
        static_cast<size_t>(batch * m * n));
    for (auto& mv : *drop_mask)
      mv = options.rng->Bernoulli(options.dropout_p) ? 0.0f : keep;
  }

  auto qi = q.impl();
  auto ki = k.impl();
  auto vi = v.impl();
  auto bi = bias.defined() ? bias.impl() : TensorImplPtr{};
  const bool needs_grad =
      internal::GradEnabled() &&
      (qi->requires_grad || ki->requires_grad || vi->requires_grad ||
       (bi != nullptr && bi->requires_grad));
  // The only saved activation: post-softmax probabilities (plus the dropout
  // mask above). Inference skips it and streams through row scratch.
  std::shared_ptr<std::vector<float>> probs;
  if (needs_grad) {
    probs = std::make_shared<std::vector<float>>(
        static_cast<size_t>(batch * m * n));
  }

  const bool causal = options.causal;
  const float scale = options.scale;
  Shape out_shape = rank == 3 ? Shape{batch, m, d} : Shape{m, d};
  std::vector<TensorImplPtr> parents = {qi, ki, vi};
  if (bi != nullptr) parents.push_back(bi);
  Tensor out = MakeNode(
      std::move(out_shape), std::move(parents),
      [qi, ki, vi, bi, probs, drop_mask, batch, m, n, d, causal, scale,
       bias_broadcast](TensorImpl& self) {
        const bool need_q = qi->requires_grad;
        const bool need_k = ki->requires_grad;
        const bool need_v = vi->requires_grad;
        const bool need_b = bi != nullptr && bi->requires_grad;
        if (need_q) qi->EnsureGrad();
        if (need_k) ki->EnsureGrad();
        if (need_v) vi->EnsureGrad();
        if (need_b) bi->EnsureGrad();
        std::vector<float> ds(static_cast<size_t>(batch * m * n));
        kernels::FusedAttentionBackward(
            qi->Data(), ki->Data(), vi->Data(), probs->data(),
            drop_mask != nullptr ? drop_mask->data() : nullptr, self.Grad(),
            need_q ? qi->Grad() : nullptr, need_k ? ki->Grad() : nullptr,
            need_v ? vi->Grad() : nullptr, need_b ? bi->Grad() : nullptr,
            ds.data(), batch, m, n, d, causal, scale, bias_broadcast);
      });
  kernels::FusedAttentionForward(
      q.data(), k.data(), v.data(), bias.defined() ? bias.data() : nullptr,
      drop_mask != nullptr ? drop_mask->data() : nullptr,
      probs != nullptr ? probs->data() : nullptr, out.data(), batch, m, n, d,
      causal, scale, bias_broadcast);
  return out;
}

Tensor FusedAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                      const Tensor& bias, bool causal, float scale) {
  FusedAttentionOptions options;
  options.causal = causal;
  options.scale = scale;
  return FusedAttention(q, k, v, bias, options);
}

// ---- Fused elementwise chains ----------------------------------------------

Tensor FusedBiasRelu(const Tensor& x_in, const Tensor& b_in) {
  STISAN_CHECK(x_in.defined() && b_in.defined());
  const Tensor x = Contiguous(x_in);
  const Tensor b = Contiguous(b_in);
  const int64_t d = x.shape().back();
  STISAN_CHECK_EQ(b.numel(), d);
  const int64_t rows = x.numel() / d;
  auto xi = x.impl();
  auto bi = b.impl();
  // Bit-identity with relu(x + b): the forward computes the identical float
  // expression per element, and the backward mirrors the composed pair —
  // the relu gate (out > 0 ⟺ pre-activation > 0, NaN gradients pass through
  // both paths identically) followed by the Add backward's serial row-major
  // bias reduction.
  Tensor out = MakeNode(
      x.shape(), {xi, bi},
      [xi, bi, rows, d](TensorImpl& self) {
        const bool need_x = xi->requires_grad;
        const bool need_b = bi->requires_grad;
        if (need_x) xi->EnsureGrad();
        if (need_b) bi->EnsureGrad();
        const float* sg = self.Grad();
        const float* sd = self.Data();
        float* xg = need_x ? xi->Grad() : nullptr;
        float* bg = need_b ? bi->Grad() : nullptr;
        for (int64_t r = 0; r < rows; ++r) {
          for (int64_t c = 0; c < d; ++c) {
            const int64_t i = r * d + c;
            const float g = sd[i] > 0.0f ? sg[i] : 0.0f;
            if (xg != nullptr) xg[i] += g;
            if (bg != nullptr) bg[c] += g;
          }
        }
      });
  float* od = out.data();
  const float* xd = x.data();
  const float* bd = b.data();
  kernels::ParallelRanges(rows, d, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r)
      for (int64_t c = 0; c < d; ++c) {
        const float t = xd[r * d + c] + bd[c];
        od[r * d + c] = t > 0.0f ? t : 0.0f;
      }
  });
  return out;
}

Tensor FusedResidualLayerNorm(const Tensor& x_in, const Tensor& r_in,
                              const Tensor& gamma_in, const Tensor& beta_in,
                              float eps) {
  STISAN_CHECK(x_in.defined() && r_in.defined());
  STISAN_CHECK(gamma_in.defined() && beta_in.defined());
  const Tensor x = Contiguous(x_in);
  const Tensor r = Contiguous(r_in);
  const Tensor gamma = Contiguous(gamma_in);
  const Tensor beta = Contiguous(beta_in);
  STISAN_CHECK(x.shape() == r.shape());
  const int64_t d = x.shape().back();
  STISAN_CHECK_EQ(gamma.numel(), d);
  STISAN_CHECK_EQ(beta.numel(), d);
  const int64_t rows = x.numel() / d;
  const int64_t numel = x.numel();
  auto xi = x.impl();
  auto ri = r.impl();
  auto gi = gamma.impl();
  auto bi = beta.impl();
  // The residual sum is saved for backward in place of a graph node; the
  // same chunked elementwise add as the composed x + r keeps it bit-equal.
  auto sum = std::make_shared<std::vector<float>>(static_cast<size_t>(numel));
  auto mu = std::make_shared<std::vector<float>>(static_cast<size_t>(rows));
  auto inv_sigma =
      std::make_shared<std::vector<float>>(static_cast<size_t>(rows));

  // Backward mirrors the composed LayerNorm(x + r) chain exactly: the same
  // LayerNorm backward over the saved sum, with the input gradient
  // accumulated into both residual operands (what the Add backward would
  // have done with the intermediate node's gradient, which is exactly that
  // gradient on a fresh buffer).
  Tensor out = MakeNode(
      x.shape(), {xi, ri, gi, bi},
      [xi, ri, gi, bi, sum, mu, inv_sigma, rows, d](TensorImpl& self) {
        const bool need_x = xi->requires_grad;
        const bool need_r = ri->requires_grad;
        const bool need_g = gi->requires_grad;
        const bool need_b = bi->requires_grad;
        if (need_x) xi->EnsureGrad();
        if (need_r) ri->EnsureGrad();
        if (need_g) gi->EnsureGrad();
        if (need_b) bi->EnsureGrad();
        kernels::LayerNormBackwardRows(
            sum->data(), gi->Data(), mu->data(), inv_sigma->data(),
            self.Grad(), need_x ? xi->Grad() : nullptr,
            need_r ? ri->Grad() : nullptr, need_g ? gi->Grad() : nullptr,
            need_b ? bi->Grad() : nullptr, rows, d);
      });
  const float* xd = x.data();
  const float* rd = r.data();
  float* sd = sum->data();
  kernels::ParallelRanges(numel, 1, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) sd[i] = xd[i] + rd[i];
  });
  kernels::LayerNormRows(sd, gamma.data(), beta.data(), out.data(),
                         mu->data(), inv_sigma->data(), rows, d, eps);
  return out;
}

}  // namespace ops

Tensor Tensor::Contiguous() const { return ops::Contiguous(*this); }

Tensor operator+(const Tensor& a, const Tensor& b) { return ops::Add(a, b); }
Tensor operator-(const Tensor& a, const Tensor& b) { return ops::Sub(a, b); }
Tensor operator*(const Tensor& a, const Tensor& b) { return ops::Mul(a, b); }
Tensor operator+(const Tensor& a, float s) { return ops::AddScalar(a, s); }
Tensor operator*(const Tensor& a, float s) { return ops::MulScalar(a, s); }
Tensor operator-(const Tensor& a) { return ops::Neg(a); }

}  // namespace stisan
