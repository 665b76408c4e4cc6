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

// Forces inlining: the split-scan side kernels' loop must compile inside
// each per-ISA entry point (core/estimate.h), never as a baseline call.
#if defined(__GNUC__) || defined(__clang__)
#define UUQ_ALWAYS_INLINE __attribute__((always_inline))
#else
#define UUQ_ALWAYS_INLINE
#endif

#endif  // UUQ_COMMON_MACROS_H_
