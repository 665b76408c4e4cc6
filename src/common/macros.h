// Lightweight assertion and utility macros shared by every uuq module.
//
// UUQ_CHECK is an always-on invariant check (it survives release builds):
// estimator math silently producing NaN/garbage is far more expensive to
// debug than the cost of a predictable branch. UUQ_DCHECK compiles away in
// release builds and is used on hot per-observation paths.
#ifndef UUQ_COMMON_MACROS_H_
#define UUQ_COMMON_MACROS_H_

#include <cstdio>
#include <cstdlib>

#define UUQ_CHECK(cond)                                                      \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::fprintf(stderr, "UUQ_CHECK failed at %s:%d: %s\n", __FILE__,      \
                   __LINE__, #cond);                                         \
      std::abort();                                                          \
    }                                                                        \
  } while (0)

#define UUQ_CHECK_MSG(cond, msg)                                             \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::fprintf(stderr, "UUQ_CHECK failed at %s:%d: %s (%s)\n", __FILE__, \
                   __LINE__, #cond, msg);                                    \
      std::abort();                                                          \
    }                                                                        \
  } while (0)

#ifdef NDEBUG
#define UUQ_DCHECK(cond) \
  do {                   \
  } while (0)
#else
#define UUQ_DCHECK(cond) UUQ_CHECK(cond)
#endif

// Marks intentionally unused parameters (e.g. interface defaults).
#define UUQ_UNUSED(x) (void)(x)

// No-alias hint for hot columnar loops (the bootstrap replicate builder
// indexes several dense arrays that provably never overlap).
#if defined(__GNUC__) || defined(__clang__)
#define UUQ_RESTRICT __restrict__
#elif defined(_MSC_VER)
#define UUQ_RESTRICT __restrict
#else
#define UUQ_RESTRICT
#endif

// Multi-versions a division-bound lane kernel for wider vector units with
// runtime dispatch (the batched split-scan kernels: 4-wide vdivpd roughly
// doubles division throughput over baseline SSE2, and the avx512f clone
// runs 8-wide on machines that have it — the large-B adaptive-budget
// escalation path is where the extra width pays). Every clone executes the
// identical IEEE operations per lane, so results never depend on which
// clone the resolver picks; the kernel files are compiled with
// -ffp-contract=off so the FMA-capable clones cannot contract a*b+c into
// a differently-rounded fused op that the default clone lacks, and under
// GCC with -fno-thread-jumps so every clone runs the lane's 5 divisions per
// loop (jump threading gave each clone 7; see CMakeLists.txt). No-op where the toolchain/arch lacks target_clones +
// ifunc support, and under ThreadSanitizer: target_clones dispatches
// through an IRELATIVE ifunc resolver that the dynamic linker runs before
// the TSan runtime has initialized, which segfaults any binary linking a
// cloned kernel before main. Dropping the clones under TSan costs only
// vector division throughput — every clone is bit-identical.
//
// Measured, interleaved 20 s perfbench runs on a 4-vCPU AVX-512 Xeon:
// targeted_50k served 80.2 queries/s with the clones vs 68.5 with
// -DUUQ_VECTOR_CLONES= (clones won 8 of 8 pairs); slices_50k was within
// noise (263 vs 268 over 6 pairs). Re-run: build perfbench into a scratch
// copy with -DCMAKE_CXX_FLAGS=-DUUQ_VECTOR_CLONES= and A/B the two trees.
#if defined(__SANITIZE_THREAD__)
#define UUQ_VECTOR_CLONES
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define UUQ_VECTOR_CLONES
#endif
#endif
#if !defined(UUQ_VECTOR_CLONES)
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define UUQ_VECTOR_CLONES \
  __attribute__((target_clones("default", "avx2", "avx512f")))
#else
#define UUQ_VECTOR_CLONES
#endif
#endif

#endif  // UUQ_COMMON_MACROS_H_
