// Seeded violation: a vector kernel and its CPU check in the loader, away
// from the one module that decides what the CPU runs.  lint_invariants.py
// must flag it or fail.
// lint-expect: isa-confined
// lint-path: src/map/fixture.cpp
#include <immintrin.h>

#include <cstdint>

namespace spinn::map {

__attribute__((target("avx2"))) std::uint64_t lowest(const std::uint64_t* x) {
  const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x));
  return static_cast<std::uint64_t>(_mm256_extract_epi64(v, 0));
}

bool has_avx2() { return __builtin_cpu_supports("avx2"); }

}  // namespace spinn::map
