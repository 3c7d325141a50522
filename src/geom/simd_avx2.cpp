// lumen_geom: 256-bit (four double lanes) batch kernels for AVX2 hosts.
//
// This TU alone is compiled with -mavx2 (see src/geom/CMakeLists.txt);
// it must contain nothing but the batch kernels, so no bit-identity-
// sensitive scalar code can silently pick up AVX codegen. Selected at
// runtime only when __builtin_cpu_supports("avx2") says the host can run
// it. -ffp-contract=off (project-wide) keeps GCC from fusing the vector
// multiply-adds, which would change roundings versus the scalar reference.
#include "geom/simd.hpp"
#include "geom/simd_common.hpp"

#include <cstdint>

namespace lumen::geom::simd::avx2 {

#define LUMEN_SIMD_LANES 4
#include "geom/simd_batch.inl"
#undef LUMEN_SIMD_LANES

}  // namespace lumen::geom::simd::avx2
