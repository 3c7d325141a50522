// lumen_geom: 128-bit (two double lanes) batch kernels.
//
// Compiled on every 64-bit target whose baseline ISA has 128-bit vectors:
// SSE2 on x86-64, NEON on aarch64 — no extra -m flags needed, the generic
// vector-extension code in simd_batch.inl lowers to whichever the target
// provides. Reported as Level::kSse2 or Level::kNeon accordingly.
#include "geom/simd.hpp"
#include "geom/simd_common.hpp"

#include <cstdint>

namespace lumen::geom::simd::wide128 {

#define LUMEN_SIMD_LANES 2
#include "geom/simd_batch.inl"
#undef LUMEN_SIMD_LANES

}  // namespace lumen::geom::simd::wide128
