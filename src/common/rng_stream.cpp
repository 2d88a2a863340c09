// The stream's vector kernels, and the one place that asks the CPU which
// of them it runs.  Each kernel is integer work only: floating point stays
// in baseline code, where no target option lets the compiler contract
// uniform(lo, hi) into a fused multiply-add and change a double.
#include "common/rng_stream.hpp"

#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SPINN_RNG_STREAM_X86 1
#define SPINN_AVX512 __attribute__((target("avx512f")))
#define SPINN_AVX2 __attribute__((target("avx2")))
#endif

namespace spinn {

namespace {

constexpr std::size_t kL = RngStream::kLaneOutputs;
using Lanes = RngStream::Lanes;

/// kJumps[k] is x^(k * kL) mod the characteristic polynomial of
/// xoshiro256's state transition T, bit i of word i / 64 the coefficient
/// of x^i.  Since T satisfies that polynomial, T^(k * kL) s is the sum over
/// the set bits i of T^i s: xoshiro's jump(), with this polynomial in place
/// of its 2^128 one.  Generated by tools/xoshiro_jumps.py for kL = 4096;
/// RngStream's tests pin them against stepping.
constexpr std::uint64_t kJumps[RngStream::kLanes][4] = {
    {1, 0, 0, 0},
    {0xd7f4e8da7e228b85ull, 0xd638d47ec5bcf595ull, 0xaa6eb691cbf9ce10ull,
     0x0f41cce3698fad39ull},
    {0x669da12373880674ull, 0xb1df898a4a6f1548ull, 0x32104b94fe2534d3ull,
     0xda66e09e52b341d1ull},
    {0x2f8694c414ab14d4ull, 0xb9aa0df930906447ull, 0x8d238798b0472623ull,
     0x47038a0bcd5cad87ull},
    {0x4f20eb915e780231ull, 0x3886af219b885248ull, 0x023ecbee3f717fceull,
     0x3cec2c375bef249cull},
    {0x16cdc7c2405806d1ull, 0xe327175dddf96c76ull, 0x02708019a1bca727ull,
     0x8e0ee0a81a0ece4bull},
    {0x95c3c96295982aaaull, 0x48c424ddaf4a3e60ull, 0xdd2fc0e089525844ull,
     0xb80482ab05b509fcull},
    {0x39b2c0ad5f2ab37bull, 0xa63f750d20127ba4ull, 0xd40755ca5df5f6ceull,
     0x0de5205cce51ff62ull},
};
static_assert(kL == 4096, "kJumps holds the polynomials for 4096 outputs");

/// A jump as the vector kernels apply it: mask[i] has bit k set when lane
/// k's polynomial has x^i, so the lanes can share one walk of T^i s.
struct JumpMasks {
  std::array<std::uint8_t, 256> start{};    // lane k jumps k * kL
  std::array<std::uint8_t, 256> advance{};  // every lane jumps 7 * kL
};

constexpr bool has_term(const std::uint64_t (&poly)[4], std::size_t i) {
  return ((poly[i / 64] >> (i % 64)) & 1) != 0;
}

constexpr JumpMasks make_jump_masks() {
  JumpMasks m;
  for (std::size_t i = 0; i < 256; ++i) {
    for (std::size_t k = 0; k < RngStream::kLanes; ++k) {
      if (has_term(kJumps[k], i)) {
        m.start[i] = static_cast<std::uint8_t>(m.start[i] | (1u << k));
      }
    }
    m.advance[i] = static_cast<std::uint8_t>(
        has_term(kJumps[RngStream::kLanes - 1], i) ? 0xFF : 0);
  }
  return m;
}

constexpr JumpMasks kJumpMasks = make_jump_masks();

/// One instruction set's kernels.
struct Kernels {
  /// Writes kL outputs of each lane, lane k's to out[k * kL ...], and
  /// leaves each lane kL steps on.
  void (*block)(Lanes& lanes, std::uint64_t* out);
  /// Applies each lane's jump, as a JumpMasks table gives it.
  void (*jump)(Lanes& lanes, const std::uint8_t* masks);
  /// Sets bit j of bits[w] when x[64 * w + j] < bound, for `words` words.
  void (*below)(const std::uint64_t* x, std::size_t words,
                std::uint64_t bound, std::uint64_t* bits);
};

#ifdef SPINN_RNG_STREAM_X86

// ---- AVX-512F: the eight lanes in one register per state word ------------
//
// GCC 12's unmasked forms of the shifts, rotates and shuffles below merge
// into an undefined vector that its -Wuninitialized misreports; their
// zero-masking forms with every lane selected compile to the same
// unmasked instructions.

constexpr __mmask8 kAllLanes = 0xFF;

template <unsigned K>
SPINN_AVX512 inline __m512i avx512_shl(__m512i x) {
  return _mm512_maskz_slli_epi64(kAllLanes, x, K);
}

template <int K>
SPINN_AVX512 inline __m512i avx512_rotl(__m512i x) {
  return _mm512_maskz_rol_epi64(kAllLanes, x, K);
}

template <int Imm>
SPINN_AVX512 inline __m512i avx512_chunks(__m512i a, __m512i b) {
  return _mm512_maskz_shuffle_i64x2(kAllLanes, a, b, Imm);
}

SPINN_AVX512 inline __m512i avx512_next(__m512i& s0, __m512i& s1, __m512i& s2,
                                        __m512i& s3) {
  // rotl(s1 * 5, 7) * 9, multiplying by shift and add.
  const __m512i x5 = _mm512_add_epi64(s1, avx512_shl<2>(s1));
  const __m512i r = avx512_rotl<7>(x5);
  const __m512i result = _mm512_add_epi64(r, avx512_shl<3>(r));
  const __m512i t = avx512_shl<17>(s1);
  s2 = _mm512_xor_si512(s2, s0);
  s3 = _mm512_xor_si512(s3, s1);
  s1 = _mm512_xor_si512(s1, s2);
  s0 = _mm512_xor_si512(s0, s3);
  s2 = _mm512_xor_si512(s2, t);
  s3 = avx512_rotl<45>(s3);
  return result;
}

SPINN_AVX512 void avx512_block(Lanes& lanes, std::uint64_t* out) {
  __m512i s0 = _mm512_loadu_si512(lanes[0].data());
  __m512i s1 = _mm512_loadu_si512(lanes[1].data());
  __m512i s2 = _mm512_loadu_si512(lanes[2].data());
  __m512i s3 = _mm512_loadu_si512(lanes[3].data());
  for (std::size_t i = 0; i < kL; i += 8) {
    // Eight steps, r<n> holding step n of every lane; the transpose turns
    // them into each lane's eight consecutive outputs.
    const __m512i r0 = avx512_next(s0, s1, s2, s3);
    const __m512i r1 = avx512_next(s0, s1, s2, s3);
    const __m512i r2 = avx512_next(s0, s1, s2, s3);
    const __m512i r3 = avx512_next(s0, s1, s2, s3);
    const __m512i r4 = avx512_next(s0, s1, s2, s3);
    const __m512i r5 = avx512_next(s0, s1, s2, s3);
    const __m512i r6 = avx512_next(s0, s1, s2, s3);
    const __m512i r7 = avx512_next(s0, s1, s2, s3);
    // 128-bit chunk c of t0 holds steps 0 and 1 of lane 2c, of t1 of lane
    // 2c + 1; t2..t7 likewise for steps 2..7.
    const __m512i t0 = _mm512_maskz_unpacklo_epi64(kAllLanes, r0, r1);
    const __m512i t1 = _mm512_maskz_unpackhi_epi64(kAllLanes, r0, r1);
    const __m512i t2 = _mm512_maskz_unpacklo_epi64(kAllLanes, r2, r3);
    const __m512i t3 = _mm512_maskz_unpackhi_epi64(kAllLanes, r2, r3);
    const __m512i t4 = _mm512_maskz_unpacklo_epi64(kAllLanes, r4, r5);
    const __m512i t5 = _mm512_maskz_unpackhi_epi64(kAllLanes, r4, r5);
    const __m512i t6 = _mm512_maskz_unpacklo_epi64(kAllLanes, r6, r7);
    const __m512i t7 = _mm512_maskz_unpackhi_epi64(kAllLanes, r6, r7);
    // 0x88 takes chunks 0 and 2 of each source, 0xDD chunks 1 and 3.
    const __m512i u0 = avx512_chunks<0x88>(t0, t2);  // lanes 0, 4
    const __m512i u1 = avx512_chunks<0xDD>(t0, t2);  // lanes 2, 6
    const __m512i u2 = avx512_chunks<0x88>(t4, t6);
    const __m512i u3 = avx512_chunks<0xDD>(t4, t6);
    const __m512i v0 = avx512_chunks<0x88>(t1, t3);  // lanes 1, 5
    const __m512i v1 = avx512_chunks<0xDD>(t1, t3);  // lanes 3, 7
    const __m512i v2 = avx512_chunks<0x88>(t5, t7);
    const __m512i v3 = avx512_chunks<0xDD>(t5, t7);
    _mm512_storeu_si512(out + 0 * kL + i, avx512_chunks<0x88>(u0, u2));
    _mm512_storeu_si512(out + 1 * kL + i, avx512_chunks<0x88>(v0, v2));
    _mm512_storeu_si512(out + 2 * kL + i, avx512_chunks<0x88>(u1, u3));
    _mm512_storeu_si512(out + 3 * kL + i, avx512_chunks<0x88>(v1, v3));
    _mm512_storeu_si512(out + 4 * kL + i, avx512_chunks<0xDD>(u0, u2));
    _mm512_storeu_si512(out + 5 * kL + i, avx512_chunks<0xDD>(v0, v2));
    _mm512_storeu_si512(out + 6 * kL + i, avx512_chunks<0xDD>(u1, u3));
    _mm512_storeu_si512(out + 7 * kL + i, avx512_chunks<0xDD>(v1, v3));
  }
  _mm512_storeu_si512(lanes[0].data(), s0);
  _mm512_storeu_si512(lanes[1].data(), s1);
  _mm512_storeu_si512(lanes[2].data(), s2);
  _mm512_storeu_si512(lanes[3].data(), s3);
}

SPINN_AVX512 void avx512_jump(Lanes& lanes, const std::uint8_t* masks) {
  __m512i s0 = _mm512_loadu_si512(lanes[0].data());
  __m512i s1 = _mm512_loadu_si512(lanes[1].data());
  __m512i s2 = _mm512_loadu_si512(lanes[2].data());
  __m512i s3 = _mm512_loadu_si512(lanes[3].data());
  __m512i a0 = _mm512_setzero_si512();
  __m512i a1 = _mm512_setzero_si512();
  __m512i a2 = _mm512_setzero_si512();
  __m512i a3 = _mm512_setzero_si512();
  for (std::size_t i = 0; i < 256; ++i) {
    const __mmask8 m = masks[i];
    a0 = _mm512_mask_xor_epi64(a0, m, a0, s0);
    a1 = _mm512_mask_xor_epi64(a1, m, a1, s1);
    a2 = _mm512_mask_xor_epi64(a2, m, a2, s2);
    a3 = _mm512_mask_xor_epi64(a3, m, a3, s3);
    avx512_next(s0, s1, s2, s3);
  }
  _mm512_storeu_si512(lanes[0].data(), a0);
  _mm512_storeu_si512(lanes[1].data(), a1);
  _mm512_storeu_si512(lanes[2].data(), a2);
  _mm512_storeu_si512(lanes[3].data(), a3);
}

SPINN_AVX512 void avx512_below(const std::uint64_t* x, std::size_t words,
                               std::uint64_t bound, std::uint64_t* bits) {
  const __m512i b = _mm512_set1_epi64(static_cast<long long>(bound));
  for (std::size_t w = 0; w < words; ++w, x += 64) {
    std::uint64_t m = 0;
    for (std::size_t j = 0; j < 8; ++j) {
      const __mmask8 lt =
          _mm512_cmplt_epu64_mask(_mm512_loadu_si512(x + 8 * j), b);
      m |= static_cast<std::uint64_t>(lt) << (8 * j);
    }
    bits[w] = m;
  }
}

constexpr Kernels kAvx512{avx512_block, avx512_jump, avx512_below};

// ---- AVX2: the eight lanes in two halves of four -------------------------

SPINN_AVX2 inline __m256i avx2_load(const std::uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

SPINN_AVX2 inline void avx2_store(std::uint64_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

template <int K>
SPINN_AVX2 inline __m256i avx2_rotl(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi64(x, K), _mm256_srli_epi64(x, 64 - K));
}

SPINN_AVX2 inline __m256i avx2_next(__m256i& s0, __m256i& s1, __m256i& s2,
                                    __m256i& s3) {
  const __m256i x5 = _mm256_add_epi64(s1, _mm256_slli_epi64(s1, 2));
  const __m256i r = avx2_rotl<7>(x5);
  const __m256i result = _mm256_add_epi64(r, _mm256_slli_epi64(r, 3));
  const __m256i t = _mm256_slli_epi64(s1, 17);
  s2 = _mm256_xor_si256(s2, s0);
  s3 = _mm256_xor_si256(s3, s1);
  s1 = _mm256_xor_si256(s1, s2);
  s0 = _mm256_xor_si256(s0, s3);
  s2 = _mm256_xor_si256(s2, t);
  s3 = avx2_rotl<45>(s3);
  return result;
}

/// Four steps of four lanes, written as each lane's four consecutive
/// outputs: lane j of the half to out[j * kL ...].
SPINN_AVX2 inline void avx2_steps(__m256i& s0, __m256i& s1, __m256i& s2,
                                  __m256i& s3, std::uint64_t* out) {
  const __m256i r0 = avx2_next(s0, s1, s2, s3);
  const __m256i r1 = avx2_next(s0, s1, s2, s3);
  const __m256i r2 = avx2_next(s0, s1, s2, s3);
  const __m256i r3 = avx2_next(s0, s1, s2, s3);
  const __m256i t0 = _mm256_unpacklo_epi64(r0, r1);  // lanes 0, 2
  const __m256i t1 = _mm256_unpackhi_epi64(r0, r1);  // lanes 1, 3
  const __m256i t2 = _mm256_unpacklo_epi64(r2, r3);
  const __m256i t3 = _mm256_unpackhi_epi64(r2, r3);
  avx2_store(out, _mm256_permute2x128_si256(t0, t2, 0x20));
  avx2_store(out + kL, _mm256_permute2x128_si256(t1, t3, 0x20));
  avx2_store(out + 2 * kL, _mm256_permute2x128_si256(t0, t2, 0x31));
  avx2_store(out + 3 * kL, _mm256_permute2x128_si256(t1, t3, 0x31));
}

SPINN_AVX2 void avx2_block(Lanes& lanes, std::uint64_t* out) {
  // Halves a (lanes 0-3) and b (lanes 4-7) are independent chains, so the
  // loop interleaves them.
  __m256i a0 = avx2_load(lanes[0].data());
  __m256i a1 = avx2_load(lanes[1].data());
  __m256i a2 = avx2_load(lanes[2].data());
  __m256i a3 = avx2_load(lanes[3].data());
  __m256i b0 = avx2_load(lanes[0].data() + 4);
  __m256i b1 = avx2_load(lanes[1].data() + 4);
  __m256i b2 = avx2_load(lanes[2].data() + 4);
  __m256i b3 = avx2_load(lanes[3].data() + 4);
  for (std::size_t i = 0; i < kL; i += 4) {
    avx2_steps(a0, a1, a2, a3, out + i);
    avx2_steps(b0, b1, b2, b3, out + 4 * kL + i);
  }
  avx2_store(lanes[0].data(), a0);
  avx2_store(lanes[1].data(), a1);
  avx2_store(lanes[2].data(), a2);
  avx2_store(lanes[3].data(), a3);
  avx2_store(lanes[0].data() + 4, b0);
  avx2_store(lanes[1].data() + 4, b1);
  avx2_store(lanes[2].data() + 4, b2);
  avx2_store(lanes[3].data() + 4, b3);
}

SPINN_AVX2 void avx2_jump(Lanes& lanes, const std::uint8_t* masks) {
  __m256i a0 = avx2_load(lanes[0].data());
  __m256i a1 = avx2_load(lanes[1].data());
  __m256i a2 = avx2_load(lanes[2].data());
  __m256i a3 = avx2_load(lanes[3].data());
  __m256i b0 = avx2_load(lanes[0].data() + 4);
  __m256i b1 = avx2_load(lanes[1].data() + 4);
  __m256i b2 = avx2_load(lanes[2].data() + 4);
  __m256i b3 = avx2_load(lanes[3].data() + 4);
  __m256i ja0 = _mm256_setzero_si256();
  __m256i ja1 = _mm256_setzero_si256();
  __m256i ja2 = _mm256_setzero_si256();
  __m256i ja3 = _mm256_setzero_si256();
  __m256i jb0 = _mm256_setzero_si256();
  __m256i jb1 = _mm256_setzero_si256();
  __m256i jb2 = _mm256_setzero_si256();
  __m256i jb3 = _mm256_setzero_si256();
  // A mask byte's bit k selects lane k: compare it against each lane's bit.
  const __m256i bit_a = _mm256_setr_epi64x(1, 2, 4, 8);
  const __m256i bit_b = _mm256_setr_epi64x(16, 32, 64, 128);
  for (std::size_t i = 0; i < 256; ++i) {
    const __m256i m = _mm256_set1_epi64x(masks[i]);
    const __m256i ma = _mm256_cmpeq_epi64(_mm256_and_si256(m, bit_a), bit_a);
    const __m256i mb = _mm256_cmpeq_epi64(_mm256_and_si256(m, bit_b), bit_b);
    ja0 = _mm256_xor_si256(ja0, _mm256_and_si256(a0, ma));
    ja1 = _mm256_xor_si256(ja1, _mm256_and_si256(a1, ma));
    ja2 = _mm256_xor_si256(ja2, _mm256_and_si256(a2, ma));
    ja3 = _mm256_xor_si256(ja3, _mm256_and_si256(a3, ma));
    jb0 = _mm256_xor_si256(jb0, _mm256_and_si256(b0, mb));
    jb1 = _mm256_xor_si256(jb1, _mm256_and_si256(b1, mb));
    jb2 = _mm256_xor_si256(jb2, _mm256_and_si256(b2, mb));
    jb3 = _mm256_xor_si256(jb3, _mm256_and_si256(b3, mb));
    avx2_next(a0, a1, a2, a3);
    avx2_next(b0, b1, b2, b3);
  }
  avx2_store(lanes[0].data(), ja0);
  avx2_store(lanes[1].data(), ja1);
  avx2_store(lanes[2].data(), ja2);
  avx2_store(lanes[3].data(), ja3);
  avx2_store(lanes[0].data() + 4, jb0);
  avx2_store(lanes[1].data() + 4, jb1);
  avx2_store(lanes[2].data() + 4, jb2);
  avx2_store(lanes[3].data() + 4, jb3);
}

SPINN_AVX2 void avx2_below(const std::uint64_t* x, std::size_t words,
                           std::uint64_t bound, std::uint64_t* bits) {
  // AVX2 compares signed: flipping both sides' top bit orders them as
  // unsigned.
  const __m256i flip = _mm256_set1_epi64x(INT64_MIN);
  const __m256i b = _mm256_xor_si256(
      _mm256_set1_epi64x(static_cast<long long>(bound)), flip);
  for (std::size_t w = 0; w < words; ++w, x += 64) {
    std::uint64_t m = 0;
    for (std::size_t j = 0; j < 16; ++j) {
      const __m256i v = _mm256_xor_si256(avx2_load(x + 4 * j), flip);
      const int lt =
          _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(b, v)));
      m |= static_cast<std::uint64_t>(static_cast<unsigned>(lt)) << (4 * j);
    }
    bits[w] = m;
  }
}

constexpr Kernels kAvx2{avx2_block, avx2_jump, avx2_below};

#endif  // SPINN_RNG_STREAM_X86

const Kernels* detect() {
#ifdef SPINN_RNG_STREAM_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return &kAvx512;
  if (__builtin_cpu_supports("avx2")) return &kAvx2;
#endif
  return nullptr;
}

const Kernels* kernels() {
  static const Kernels* const k = detect();
  return k;
}

}  // namespace

bool RngStream::available() { return kernels() != nullptr; }

RngStream::RngStream(Rng& rng)
    : rng_(rng),
      buf_(std::make_unique_for_overwrite<std::uint64_t[]>(kBlock)) {
  if (!available()) {
    throw std::logic_error("RngStream needs a CPU with AVX-512F or AVX2");
  }
  for (std::size_t w = 0; w < 4; ++w) lanes_[w].fill(rng.s_[w]);
  kernels()->jump(lanes_, kJumpMasks.start.data());
}

RngStream::~RngStream() {
  // The next output's state: the next block's start when this block is
  // used up (or none was made), otherwise its lane's state at the block's
  // start, stepped to it.
  const bool in_block = pos_ < kBlock;
  const Lanes& from = in_block ? starts_ : lanes_;
  const std::size_t lane = in_block ? pos_ / kLaneOutputs : 0;
  std::uint64_t s0 = from[0][lane];
  std::uint64_t s1 = from[1][lane];
  std::uint64_t s2 = from[2][lane];
  std::uint64_t s3 = from[3][lane];
  const std::size_t steps = in_block ? pos_ % kLaneOutputs : 0;
  for (std::size_t i = 0; i < steps; ++i) Rng::step(s0, s1, s2, s3);
  rng_.s_[0] = s0;
  rng_.s_[1] = s1;
  rng_.s_[2] = s2;
  rng_.s_[3] = s3;
}

void RngStream::refill() {
  const Kernels& k = *kernels();
  starts_ = lanes_;
  k.block(lanes_, buf_.get());
  k.jump(lanes_, kJumpMasks.advance.data());
  pos_ = 0;
  below_end_ = 0;
}

void RngStream::mark_below() {
  if (pos_ == kBlock) refill();
  // 512 outputs a call: a few runs of trials, without a whole block's
  // compares going to waste when the next call changes the bound.
  constexpr std::size_t kWords = 8;
  const std::size_t first = pos_ / 64;
  const std::size_t last = std::min(first + kWords, kBlock / 64);
  kernels()->below(buf_.get() + first * 64, last - first, bound_,
                   below_.data() + first);
  below_end_ = last * 64;
}

}  // namespace spinn
