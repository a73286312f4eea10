// Fixture: banned includes in the monitor layer -- wall-clock types must
// not leak into deterministic admission code, and hand-written SIMD
// intrinsics have no home in library code.
#include <chrono>       // rthv-lint-expect: banned-include
#include <immintrin.h>  // rthv-lint-expect: banned-include

int fixture_uses_nothing() { return 0; }
