#ifndef PREQR_COMMON_CHECK_H_
#define PREQR_COMMON_CHECK_H_

#include <cstdio>
#include <cstdlib>

// Invariant-checking macros. A failed check is a programming error and
// terminates the process; recoverable conditions use Status/StatusOr instead.

#define PREQR_CHECK(cond)                                                     \
  do {                                                                        \
    if (!(cond)) {                                                            \
      std::fprintf(stderr, "PREQR_CHECK failed: %s at %s:%d\n", #cond,        \
                   __FILE__, __LINE__);                                       \
      std::abort();                                                           \
    }                                                                         \
  } while (0)

#define PREQR_CHECK_MSG(cond, msg)                                            \
  do {                                                                        \
    if (!(cond)) {                                                            \
      std::fprintf(stderr, "PREQR_CHECK failed: %s (%s) at %s:%d\n", #cond,   \
                   msg, __FILE__, __LINE__);                                  \
      std::abort();                                                           \
    }                                                                         \
  } while (0)

#define PREQR_CHECK_EQ(a, b) PREQR_CHECK((a) == (b))
#define PREQR_CHECK_NE(a, b) PREQR_CHECK((a) != (b))
#define PREQR_CHECK_LT(a, b) PREQR_CHECK((a) < (b))
#define PREQR_CHECK_LE(a, b) PREQR_CHECK((a) <= (b))
#define PREQR_CHECK_GT(a, b) PREQR_CHECK((a) > (b))
#define PREQR_CHECK_GE(a, b) PREQR_CHECK((a) >= (b))

#endif  // PREQR_COMMON_CHECK_H_
