#include "simd/intersect_kernels.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FSI_SIMD_X86 1
#include <immintrin.h>
#else
#define FSI_SIMD_X86 0
#endif

namespace fsi::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar tier — the reference semantics every vector tier must reproduce
// bit-for-bit.  These are the library's original inner loops, hoisted here
// so algorithm code and kernel share one definition.
// ---------------------------------------------------------------------------

void IntersectPairScalar(const std::uint32_t* a, std::size_t na,
                         const std::uint32_t* b, std::size_t nb,
                         std::vector<std::uint32_t>* out) {
  const std::uint32_t* pa = a;
  const std::uint32_t* ea = a + na;
  const std::uint32_t* pb = b;
  const std::uint32_t* eb = b + nb;
  while (pa < ea && pb < eb) {
    std::uint32_t va = *pa;
    std::uint32_t vb = *pb;
    if (va == vb) {
      out->push_back(va);
      ++pa;
      ++pb;
    } else {
      // Branch-light advance: exactly one cursor moves.
      pa += (va < vb);
      pb += (vb < va);
    }
  }
}

std::size_t LowerBoundScalar(const std::uint32_t* sorted, std::size_t n,
                             std::uint32_t x) {
  return static_cast<std::size_t>(std::lower_bound(sorted, sorted + n, x) -
                                  sorted);
}

/// Exponential-probe bracketing shared by every gallop_ge tier: writes the
/// half-open window [*win_lo, *win_lo + *win_len) that contains the first
/// element >= x (an empty window at `lo` when no probing is needed).  Each
/// tier resolves the window with its own lower_bound, so the bracketing
/// logic exists exactly once and the tiers cannot drift apart.
void GallopBracket(const std::uint32_t* sorted, std::size_t n, std::size_t lo,
                   std::uint32_t x, std::size_t* win_lo,
                   std::size_t* win_len) {
  if (lo >= n || sorted[lo] >= x) {
    *win_lo = lo;
    *win_len = 0;
    return;
  }
  // Double the step until we overshoot.
  std::size_t step = 1;
  std::size_t prev = lo;
  std::size_t cur = lo + 1;
  while (cur < n && sorted[cur] < x) {
    prev = cur;
    step *= 2;
    cur = lo + step;
  }
  if (cur > n) cur = n;
  *win_lo = prev + 1;
  *win_len = cur - prev - 1;
}

std::size_t GallopGeScalar(const std::uint32_t* sorted, std::size_t n,
                           std::size_t lo, std::uint32_t x) {
  std::size_t win_lo;
  std::size_t win_len;
  GallopBracket(sorted, n, lo, x, &win_lo, &win_len);
  return win_lo + LowerBoundScalar(sorted + win_lo, win_len, x);
}

void MatchAnyScalar(const std::uint32_t* a, std::size_t na,
                    const std::uint32_t* b, std::size_t nb,
                    std::vector<std::uint32_t>* out) {
  for (std::size_t i = 0; i < na; ++i) {
    const std::uint32_t x = a[i];
    for (std::size_t j = 0; j < nb; ++j) {
      if (b[j] == x) {
        out->push_back(x);
        break;  // inputs are duplicate-free: at most one match
      }
    }
  }
}

#if FSI_SIMD_X86

// ---------------------------------------------------------------------------
// Shared lookup tables (plain uint32/uint8 arrays — built without vector
// instructions so static initialization is safe on any CPU; the kernels
// load them with unaligned loads).
// ---------------------------------------------------------------------------

// mask (8 bits, one per 32-bit lane) -> permutevar8x32 index vector that
// packs the selected lanes to the front.  Unselected trailing lanes index
// lane 0; their values are garbage and are trimmed by the final resize.
struct Compact8Table {
  alignas(32) std::uint32_t idx[256][8];
  Compact8Table() {
    for (int mask = 0; mask < 256; ++mask) {
      int k = 0;
      for (int lane = 0; lane < 8; ++lane) {
        if (mask & (1 << lane)) idx[mask][k++] = static_cast<std::uint32_t>(lane);
      }
      for (; k < 8; ++k) idx[mask][k] = 0;
    }
  }
};

// mask (4 bits) -> pshufb byte-shuffle packing the selected dwords.
struct Compact4Table {
  alignas(16) std::uint8_t idx[16][16];
  Compact4Table() {
    for (int mask = 0; mask < 16; ++mask) {
      int k = 0;
      for (int lane = 0; lane < 4; ++lane) {
        if (mask & (1 << lane)) {
          for (int byte = 0; byte < 4; ++byte) {
            idx[mask][4 * k + byte] = static_cast<std::uint8_t>(4 * lane + byte);
          }
          ++k;
        }
      }
      for (; k < 4; ++k) {
        for (int byte = 0; byte < 4; ++byte) {
          idx[mask][4 * k + byte] = 0x80;  // zero-fill; trimmed anyway
        }
      }
    }
  }
};

// Lane-rotation index vectors for permutevar8x32: rot[r][lane] = (lane+r)%8.
struct Rotate8Table {
  alignas(32) std::uint32_t idx[8][8];
  Rotate8Table() {
    for (int r = 0; r < 8; ++r) {
      for (int lane = 0; lane < 8; ++lane) {
        idx[r][lane] = static_cast<std::uint32_t>((lane + r) % 8);
      }
    }
  }
};

// Partial-load masks for _mm256_maskload_epi32: valid[r] has the first r
// lanes enabled.
struct LoadMask8Table {
  alignas(32) std::uint32_t idx[9][8];
  LoadMask8Table() {
    for (int r = 0; r <= 8; ++r) {
      for (int lane = 0; lane < 8; ++lane) {
        idx[r][lane] = lane < r ? 0xffffffffu : 0u;
      }
    }
  }
};

const Compact8Table kCompact8;
const Compact4Table kCompact4;
const Rotate8Table kRotate8;
const LoadMask8Table kLoadMask8;

// Bias making signed 32-bit compares order unsigned values.
constexpr std::uint32_t kSignBias = 0x80000000u;

// Block advance of the AVX2/SSE merges.  Below this long-over-short size
// ratio which block advances is close to a coin flip, and the advance is
// kept branch-free (the empty asm stops GCC from threading it back into a
// branch, as in BlockMergeAvx512); from it on the long side advances on
// most steps and a predicted branch is faster.  Tuned on a forced-tier
// ratio sweep, see docs/ALGORITHMS.md.
constexpr std::size_t kBranchFreeRatio = 8;

inline bool Skewed(std::size_t na, std::size_t nb) {
  return std::max(na, nb) >= kBranchFreeRatio * std::min(na, nb);
}

/// Short-side pairs of the block merges, whose shorter side holds at most
/// `short_max` elements (one block).  Against a long side of at most
/// kSmallLong blocks (the RanGroupScan group merges live here: expected
/// group width ~8) MatchAny probes each short element against the whole
/// long side.  Against a longer one each short element finds its place
/// with a galloping probe from where the last one stopped (a monotone
/// cursor), so the long side is read only around the probes, never
/// rescanned.  Either way the matches come out in the sorted short side's
/// order, ascending: the merge output.
constexpr std::size_t kSmallLong = 4;

template <void (*MatchAny)(const std::uint32_t*, std::size_t,
                           const std::uint32_t*, std::size_t,
                           std::vector<std::uint32_t>*),
          std::size_t (*GallopGe)(const std::uint32_t*, std::size_t,
                                  std::size_t, std::uint32_t)>
void ShortSidePair(const std::uint32_t* a, std::size_t na,
                   const std::uint32_t* b, std::size_t nb,
                   std::size_t short_max, std::vector<std::uint32_t>* out) {
  const bool a_short = na <= nb;
  const std::uint32_t* s = a_short ? a : b;
  const std::uint32_t* l = a_short ? b : a;
  const std::size_t ns = a_short ? na : nb;
  const std::size_t nl = a_short ? nb : na;
  if (nl <= kSmallLong * short_max) {
    MatchAny(s, ns, l, nl, out);
    return;
  }
  std::size_t j = 0;
  for (std::size_t i = 0; i < ns; ++i) {
    j = GallopGe(l, nl, j, s[i]);
    if (j == nl) return;
    if (l[j] == s[i]) out->push_back(l[j++]);
  }
}

// ---------------------------------------------------------------------------
// AVX2 tier: 8 x uint32 lanes.  Every function carries a target attribute,
// so the translation unit builds at the baseline ISA and these bodies are
// only entered after the CPUID check in cpu_features.cc.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) void MatchAnyAvx2(
    const std::uint32_t* a, std::size_t na, const std::uint32_t* b,
    std::size_t nb, std::vector<std::uint32_t>* out) {
  for (std::size_t i = 0; i < na; ++i) {
    const std::uint32_t x = a[i];
    const __m256i broadcast = _mm256_set1_epi32(static_cast<int>(x));
    bool found = false;
    std::size_t j = 0;
    for (; j + 8 <= nb && !found; j += 8) {
      const __m256i group = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(b + j));
      const __m256i eq = _mm256_cmpeq_epi32(broadcast, group);
      found = _mm256_movemask_ps(_mm256_castsi256_ps(eq)) != 0;
    }
    if (!found && j < nb) {
      const std::size_t rem = nb - j;
      const __m256i mask = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(kLoadMask8.idx[rem]));
      const __m256i group = _mm256_maskload_epi32(
          reinterpret_cast<const int*>(b + j), mask);
      const __m256i eq = _mm256_cmpeq_epi32(broadcast, group);
      // Masked-out lanes load as 0 and would spuriously match x == 0;
      // keep only the valid lanes' compare bits.
      const int hits = _mm256_movemask_ps(_mm256_castsi256_ps(eq)) &
                       ((1 << rem) - 1);
      found = hits != 0;
    }
    if (found) out->push_back(x);
  }
}

__attribute__((target("avx2"))) std::size_t LowerBoundAvx2(
    const std::uint32_t* sorted, std::size_t n, std::uint32_t x) {
  // Binary-search down to a short window, then resolve the window with
  // broadcast-compare + popcount instead of the final branchy steps.
  std::size_t lo = 0;
  std::size_t len = n;
  while (len > 32) {
    const std::size_t half = len / 2;
    if (sorted[lo + half] < x) {
      lo += half + 1;
      len -= half + 1;
    } else {
      len = half;
    }
  }
  std::size_t less = 0;
  std::size_t j = 0;
  if (len >= 8) {  // skip the vector setup entirely for tiny windows
    const __m256i probe =
        _mm256_set1_epi32(static_cast<int>(x ^ kSignBias));
    const __m256i bias = _mm256_set1_epi32(static_cast<int>(kSignBias));
    for (; j + 8 <= len; j += 8) {
      const __m256i v = _mm256_xor_si256(
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(sorted + lo + j)),
          bias);
      const int below = _mm256_movemask_ps(
          _mm256_castsi256_ps(_mm256_cmpgt_epi32(probe, v)));
      less += static_cast<std::size_t>(__builtin_popcount(
          static_cast<unsigned>(below)));
    }
  }
  for (; j < len; ++j) less += (sorted[lo + j] < x) ? 1 : 0;
  return lo + less;
}

__attribute__((target("avx2"))) std::size_t GallopGeAvx2(
    const std::uint32_t* sorted, std::size_t n, std::size_t lo,
    std::uint32_t x) {
  std::size_t win_lo;
  std::size_t win_len;
  GallopBracket(sorted, n, lo, x, &win_lo, &win_len);
  return win_lo + LowerBoundAvx2(sorted + win_lo, win_len, x);
}

__attribute__((target("avx2"))) void IntersectPairAvx2(
    const std::uint32_t* a, std::size_t na, const std::uint32_t* b,
    std::size_t nb, std::vector<std::uint32_t>* out) {
  if (na == 0 || nb == 0) return;
  constexpr std::size_t kShort = 16;
  if (na <= kShort || nb <= kShort) {
    ShortSidePair<MatchAnyAvx2, GallopGeAvx2>(a, na, b, nb, kShort, out);
    return;
  }
  // Block-wise merge: compare an 8-element block of each list
  // all-against-all (8 lane rotations), pack the matches, then advance the
  // block whose maximum is smaller.  A value matches in at most one block
  // pair and blocks advance monotonically, so matches are emitted exactly
  // once, in ascending order — identical to the two-pointer merge.
  const std::size_t base = out->size();
  out->resize(base + std::min(na, nb) + 8);  // +8: packed-store slack
  std::uint32_t* dst0 = out->data() + base;
  std::uint32_t* dst = dst0;
  std::size_t ia = 0;
  std::size_t ib = 0;
  const bool skewed = Skewed(na, nb);
  while (ia + 8 <= na && ib + 8 <= nb) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + ia));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + ib));
    const std::uint32_t amax = a[ia + 7];
    const std::uint32_t bmax = b[ib + 7];
    __m256i eq = _mm256_cmpeq_epi32(va, vb);
    for (int r = 1; r < 8; ++r) {
      const __m256i rot = _mm256_permutevar8x32_epi32(
          vb, _mm256_load_si256(
                  reinterpret_cast<const __m256i*>(kRotate8.idx[r])));
      eq = _mm256_or_si256(eq, _mm256_cmpeq_epi32(va, rot));
    }
    const int mask = _mm256_movemask_ps(_mm256_castsi256_ps(eq));
    const __m256i packed = _mm256_permutevar8x32_epi32(
        va, _mm256_load_si256(
                reinterpret_cast<const __m256i*>(kCompact8.idx[mask])));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), packed);
    dst += __builtin_popcount(static_cast<unsigned>(mask));
    if (skewed) {
      ia += (amax <= bmax) ? 8 : 0;
      ib += (bmax <= amax) ? 8 : 0;
    } else {
      std::size_t a_step = amax <= bmax;
      std::size_t b_step = bmax <= amax;
      __asm__("" : "+r"(a_step), "+r"(b_step));
      ia += a_step * 8;
      ib += b_step * 8;
    }
  }
  out->resize(base + static_cast<std::size_t>(dst - dst0));
  IntersectPairScalar(a + ia, na - ia, b + ib, nb - ib, out);
}

// ---------------------------------------------------------------------------
// AVX-512 tier: 16 x uint32 lanes (AVX-512F).  Native unsigned compares
// write mask registers, so no sign bias; masked loads cover the tails
// without reading past the end, and every compare over a masked load is
// masked too, so zero-filled lanes never match x == 0.
// ---------------------------------------------------------------------------

/// Lanes [0, n) set, n <= 16.
inline __mmask16 FirstLanes(std::size_t n) {
  return static_cast<__mmask16>((1u << n) - 1u);
}

__attribute__((target("avx512f"))) void MatchAnyAvx512(
    const std::uint32_t* a, std::size_t na, const std::uint32_t* b,
    std::size_t nb, std::vector<std::uint32_t>* out) {
  const std::size_t full = nb & ~std::size_t{15};
  const __mmask16 tail = FirstLanes(nb - full);
  for (std::size_t i = 0; i < na; ++i) {
    const std::uint32_t x = a[i];
    const __m512i broadcast = _mm512_set1_epi32(static_cast<int>(x));
    bool found = false;
    std::size_t j = 0;
    for (; j < full && !found; j += 16) {
      found = _mm512_cmpeq_epi32_mask(broadcast, _mm512_loadu_si512(b + j)) !=
              0;
    }
    if (!found && tail != 0) {
      const __m512i group = _mm512_maskz_loadu_epi32(tail, b + full);
      found = _mm512_mask_cmpeq_epi32_mask(tail, broadcast, group) != 0;
    }
    if (found) out->push_back(x);
  }
}

__attribute__((target("avx512f"))) std::size_t LowerBoundAvx512(
    const std::uint32_t* sorted, std::size_t n, std::uint32_t x) {
  // Binary-search down to a window of at most four vectors, then count the
  // window's elements below x sixteen lanes at a time.
  std::size_t lo = 0;
  std::size_t len = n;
  while (len > 64) {
    const std::size_t half = len / 2;
    if (sorted[lo + half] < x) {
      lo += half + 1;
      len -= half + 1;
    } else {
      len = half;
    }
  }
  const __m512i probe = _mm512_set1_epi32(static_cast<int>(x));
  const std::uint32_t* window = sorted + lo;
  std::size_t less = 0;
  std::size_t j = 0;
  for (; j + 16 <= len; j += 16) {
    less += static_cast<std::size_t>(__builtin_popcount(
        _mm512_cmplt_epu32_mask(_mm512_loadu_si512(window + j), probe)));
  }
  if (j < len) {
    const __mmask16 tail = FirstLanes(len - j);
    const __m512i v = _mm512_maskz_loadu_epi32(tail, window + j);
    less += static_cast<std::size_t>(
        __builtin_popcount(_mm512_mask_cmplt_epu32_mask(tail, v, probe)));
  }
  return lo + less;
}

__attribute__((target("avx512f"))) std::size_t GallopGeAvx512(
    const std::uint32_t* sorted, std::size_t n, std::size_t lo,
    std::uint32_t x) {
  std::size_t win_lo;
  std::size_t win_len;
  GallopBracket(sorted, n, lo, x, &win_lo, &win_len);
  return win_lo + LowerBoundAvx512(sorted + win_lo, win_len, x);
}

/// Broadcast-compare block merge of a short block of K elements of `s`
/// against a 16-lane block of `l`: each short element is broadcast from
/// memory and compared against the long block, the OR of the masks marks
/// the long block's matches, which vpcompressd packs for one full-width
/// store at *dst.  The side whose block maximum is smaller advances (both
/// on a tie).  A common value sits in exactly one (short, long) block
/// pair and block pairs are visited in increasing order on both sides,
/// so each match is written once, in ascending order.  Runs while both
/// sides hold a full block; advances *is, *il and *dst.
///
/// With K = 8 the lists are within 12x of each other and which side
/// advances is close to a coin flip, so the advance is kept branch-free
/// (the empty asm stops GCC from threading it back into a branch).  With
/// a smaller K the long side advances on most steps; there a predicted
/// branch beats the load-compare-add chain a branch-free advance puts
/// between iterations.
template <int K>
__attribute__((target("avx512f"))) inline void BlockMergeAvx512(
    const std::uint32_t* s, std::size_t ns, const std::uint32_t* l,
    std::size_t nl, std::size_t* is, std::size_t* il, std::uint32_t** dst) {
  std::size_t i = *is;
  std::size_t j = *il;
  std::uint32_t* d = *dst;
  while (i + K <= ns && j + 16 <= nl) {
    const __m512i block = _mm512_loadu_si512(l + j);
    __mmask16 hits = 0;
#pragma GCC unroll 8
    for (int k = 0; k < K; ++k) {
      hits |= _mm512_cmpeq_epi32_mask(
          block, _mm512_set1_epi32(static_cast<int>(s[i + k])));
    }
    _mm512_storeu_si512(d, _mm512_maskz_compress_epi32(hits, block));
    d += __builtin_popcount(hits);
    const std::uint32_t smax = s[i + K - 1];
    const std::uint32_t lmax = l[j + 15];
    if constexpr (K == 8) {
      std::size_t s_step = smax <= lmax;
      std::size_t l_step = lmax <= smax;
      __asm__("" : "+r"(s_step), "+r"(l_step));
      i += s_step * K;
      j += l_step * 16;
    } else if (lmax < smax) {
      j += 16;
    } else {
      i += K;
      j += (lmax == smax) ? 16 : 0;
    }
  }
  *is = i;
  *il = j;
  *dst = d;
}

/// Long-over-short size ratio from which the 4-element short block beats
/// the 8-element one (fewer compares per long block outweigh the extra
/// iterations); tuned on a size-ratio sweep, see docs/ALGORITHMS.md.
constexpr std::size_t kShortBlock4Ratio = 12;

__attribute__((target("avx512f"))) void IntersectPairAvx512(
    const std::uint32_t* a, std::size_t na, const std::uint32_t* b,
    std::size_t nb, std::vector<std::uint32_t>* out) {
  if (na == 0 || nb == 0) return;
  // Both sides emit the same ascending values, so run the shorter list
  // as the broadcast side.
  const bool a_short = na <= nb;
  const std::uint32_t* s = a_short ? a : b;
  const std::uint32_t* l = a_short ? b : a;
  const std::size_t ns = a_short ? na : nb;
  const std::size_t nl = a_short ? nb : na;
  if (nl <= 16) {
    // One masked compare per short element (the RanGroupScan group merges
    // live here); emitting in the sorted short side's order is ascending.
    MatchAnyAvx512(s, ns, l, nl, out);
    return;
  }
  const std::size_t base = out->size();
  out->resize(base + ns + 16);  // +16: full-width store slack
  std::uint32_t* dst0 = out->data() + base;
  std::uint32_t* dst = dst0;
  std::size_t is = 0;
  std::size_t il = 0;
  if (nl >= kShortBlock4Ratio * ns) {
    BlockMergeAvx512<4>(s, ns, l, nl, &is, &il, &dst);
  } else {
    BlockMergeAvx512<8>(s, ns, l, nl, &is, &il, &dst);
  }
  // Fewer than a short block left on the short side: one element at a time
  // while the long side still has full blocks.
  BlockMergeAvx512<1>(s, ns, l, nl, &is, &il, &dst);
  out->resize(base + static_cast<std::size_t>(dst - dst0));
  IntersectPairScalar(s + is, ns - is, l + il, nl - il, out);
}

// ---------------------------------------------------------------------------
// SSE tier: 4 x uint32 lanes (SSE2 compares + SSSE3 pshufb packing).
// ---------------------------------------------------------------------------

__attribute__((target("ssse3"))) void MatchAnySse(
    const std::uint32_t* a, std::size_t na, const std::uint32_t* b,
    std::size_t nb, std::vector<std::uint32_t>* out) {
  for (std::size_t i = 0; i < na; ++i) {
    const std::uint32_t x = a[i];
    const __m128i broadcast = _mm_set1_epi32(static_cast<int>(x));
    bool found = false;
    std::size_t j = 0;
    for (; j + 4 <= nb && !found; j += 4) {
      const __m128i group =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j));
      const __m128i eq = _mm_cmpeq_epi32(broadcast, group);
      found = _mm_movemask_ps(_mm_castsi128_ps(eq)) != 0;
    }
    for (; j < nb && !found; ++j) found = (b[j] == x);
    if (found) out->push_back(x);
  }
}

__attribute__((target("ssse3"))) std::size_t LowerBoundSse(
    const std::uint32_t* sorted, std::size_t n, std::uint32_t x) {
  std::size_t lo = 0;
  std::size_t len = n;
  while (len > 16) {
    const std::size_t half = len / 2;
    if (sorted[lo + half] < x) {
      lo += half + 1;
      len -= half + 1;
    } else {
      len = half;
    }
  }
  std::size_t less = 0;
  std::size_t j = 0;
  if (len >= 4) {  // skip the vector setup entirely for tiny windows
    const __m128i probe = _mm_set1_epi32(static_cast<int>(x ^ kSignBias));
    const __m128i bias = _mm_set1_epi32(static_cast<int>(kSignBias));
    for (; j + 4 <= len; j += 4) {
      const __m128i v = _mm_xor_si128(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(sorted + lo + j)),
          bias);
      const int below =
          _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpgt_epi32(probe, v)));
      less += static_cast<std::size_t>(__builtin_popcount(
          static_cast<unsigned>(below)));
    }
  }
  for (; j < len; ++j) less += (sorted[lo + j] < x) ? 1 : 0;
  return lo + less;
}

__attribute__((target("ssse3"))) std::size_t GallopGeSse(
    const std::uint32_t* sorted, std::size_t n, std::size_t lo,
    std::uint32_t x) {
  std::size_t win_lo;
  std::size_t win_len;
  GallopBracket(sorted, n, lo, x, &win_lo, &win_len);
  return win_lo + LowerBoundSse(sorted + win_lo, win_len, x);
}

__attribute__((target("ssse3"))) void IntersectPairSse(
    const std::uint32_t* a, std::size_t na, const std::uint32_t* b,
    std::size_t nb, std::vector<std::uint32_t>* out) {
  if (na == 0 || nb == 0) return;
  constexpr std::size_t kShort = 8;
  if (na <= kShort || nb <= kShort) {
    ShortSidePair<MatchAnySse, GallopGeSse>(a, na, b, nb, kShort, out);
    return;
  }
  const std::size_t base = out->size();
  out->resize(base + std::min(na, nb) + 4);
  std::uint32_t* dst0 = out->data() + base;
  std::uint32_t* dst = dst0;
  std::size_t ia = 0;
  std::size_t ib = 0;
  const bool skewed = Skewed(na, nb);
  while (ia + 4 <= na && ib + 4 <= nb) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + ia));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + ib));
    const std::uint32_t amax = a[ia + 3];
    const std::uint32_t bmax = b[ib + 3];
    // All-pairs compare via the three lane rotations of vb.
    const __m128i r1 = _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1));
    const __m128i r2 = _mm_shuffle_epi32(vb, _MM_SHUFFLE(1, 0, 3, 2));
    const __m128i r3 = _mm_shuffle_epi32(vb, _MM_SHUFFLE(2, 1, 0, 3));
    __m128i eq = _mm_cmpeq_epi32(va, vb);
    eq = _mm_or_si128(eq, _mm_cmpeq_epi32(va, r1));
    eq = _mm_or_si128(eq, _mm_cmpeq_epi32(va, r2));
    eq = _mm_or_si128(eq, _mm_cmpeq_epi32(va, r3));
    const int mask = _mm_movemask_ps(_mm_castsi128_ps(eq));
    const __m128i packed = _mm_shuffle_epi8(
        va,
        _mm_load_si128(reinterpret_cast<const __m128i*>(kCompact4.idx[mask])));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), packed);
    dst += __builtin_popcount(static_cast<unsigned>(mask));
    if (skewed) {
      ia += (amax <= bmax) ? 4 : 0;
      ib += (bmax <= amax) ? 4 : 0;
    } else {
      std::size_t a_step = amax <= bmax;
      std::size_t b_step = bmax <= amax;
      __asm__("" : "+r"(a_step), "+r"(b_step));
      ia += a_step * 4;
      ib += b_step * 4;
    }
  }
  out->resize(base + static_cast<std::size_t>(dst - dst0));
  IntersectPairScalar(a + ia, na - ia, b + ib, nb - ib, out);
}

#endif  // FSI_SIMD_X86

constexpr Kernels kScalarTable = {
    Level::kScalar, IntersectPairScalar, LowerBoundScalar, GallopGeScalar,
    MatchAnyScalar,
};

#if FSI_SIMD_X86
constexpr Kernels kSseTable = {
    Level::kSse, IntersectPairSse, LowerBoundSse, GallopGeSse, MatchAnySse,
};
constexpr Kernels kAvx2Table = {
    Level::kAvx2, IntersectPairAvx2, LowerBoundAvx2, GallopGeAvx2,
    MatchAnyAvx2,
};
constexpr Kernels kAvx512Table = {
    Level::kAvx512, IntersectPairAvx512, LowerBoundAvx512, GallopGeAvx512,
    MatchAnyAvx512,
};
#endif

}  // namespace

Mode ParseMode(std::string_view value) {
  if (value == "auto" || value == "on" || value == "1") return Mode::kAuto;
  if (value == "off" || value == "scalar" || value == "0") return Mode::kOff;
  throw std::invalid_argument("simd: expected 'auto' or 'off', got '" +
                              std::string(value) + "'");
}

const Kernels& ScalarKernels() { return kScalarTable; }

const Kernels& KernelsForLevel(Level level) {
  // Clamp to what this CPU can execute, then pick the table.
  Level detected = DetectCpuLevel();
  Level effective = level;
  if (static_cast<int>(effective) > static_cast<int>(detected)) {
    effective = detected;
  }
#if FSI_SIMD_X86
  switch (effective) {
    case Level::kAvx512:
      return kAvx512Table;
    case Level::kAvx2:
      return kAvx2Table;
    case Level::kSse:
      return kSseTable;
    case Level::kScalar:
      break;
  }
#endif
  (void)effective;
  return kScalarTable;
}

const Kernels& DispatchedKernels() {
  // Resolved once: ActiveLevel() folds in the FSI_FORCE_SCALAR override.
  static const Kernels& kernels = KernelsForLevel(ActiveLevel());
  return kernels;
}

}  // namespace fsi::simd
