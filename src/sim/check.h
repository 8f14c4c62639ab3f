// Lightweight assertion macros for invariants that must hold in all build modes.
//
// CHECK* macros abort with a message on failure and are always compiled in; they guard
// kernel invariants whose violation would make simulation results meaningless.
#ifndef EXO_SIM_CHECK_H_
#define EXO_SIM_CHECK_H_

#include <cstdio>
#include <cstdlib>

namespace exo::sim::internal {

[[noreturn]] inline void CheckFail(const char* file, int line, const char* expr) {
  std::fprintf(stderr, "CHECK failed at %s:%d: %s\n", file, line, expr);
  std::abort();
}

}  // namespace exo::sim::internal

#define EXO_CHECK(expr)                                        \
  do {                                                         \
    if (!(expr)) {                                             \
      ::exo::sim::internal::CheckFail(__FILE__, __LINE__, #expr); \
    }                                                          \
  } while (0)

#define EXO_CHECK_EQ(a, b) EXO_CHECK((a) == (b))
#define EXO_CHECK_LT(a, b) EXO_CHECK((a) < (b))
#define EXO_CHECK_LE(a, b) EXO_CHECK((a) <= (b))
#define EXO_CHECK_GT(a, b) EXO_CHECK((a) > (b))
#define EXO_CHECK_GE(a, b) EXO_CHECK((a) >= (b))

#ifdef NDEBUG
#define EXO_DCHECK(expr) \
  do {                   \
  } while (0)
#else
#define EXO_DCHECK(expr) EXO_CHECK(expr)
#endif

#endif  // EXO_SIM_CHECK_H_
