// Invariant checking macros for internal programming errors.
//
// STISAN_CHECK fires in all build types; STISAN_DCHECK only in debug builds.
// Failures print the condition, location and an optional message, then abort.

#pragma once

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace stisan::internal {

[[noreturn]] inline void CheckFailed(const char* cond, const char* file,
                                     int line, const std::string& msg) {
  std::fprintf(stderr, "STISAN_CHECK failed: %s at %s:%d %s\n", cond, file,
               line, msg.c_str());
  std::abort();
}

// Builds the failure message lazily so the happy path costs one branch.
class CheckMessageBuilder {
 public:
  template <typename T>
  CheckMessageBuilder& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }
  std::string str() const { return stream_.str(); }

 private:
  std::ostringstream stream_;
};

}  // namespace stisan::internal

// Each macro is a single statement (do { ... } while (0)), so it nests
// under an unbraced `if` without a dangling `else`.
#define STISAN_CHECK(cond)                                              \
  do {                                                                  \
    if (!(cond))                                                        \
      ::stisan::internal::CheckFailed(                                  \
          #cond, __FILE__, __LINE__,                                    \
          ::stisan::internal::CheckMessageBuilder().str());             \
  } while (0)

#define STISAN_CHECK_MSG(cond, msg)                                     \
  do {                                                                  \
    if (!(cond))                                                        \
      ::stisan::internal::CheckFailed(                                  \
          #cond, __FILE__, __LINE__,                                    \
          (::stisan::internal::CheckMessageBuilder() << msg).str());    \
  } while (0)

#define STISAN_CHECK_EQ(a, b) STISAN_CHECK_MSG((a) == (b), "(" << (a) << " vs " << (b) << ")")
#define STISAN_CHECK_NE(a, b) STISAN_CHECK_MSG((a) != (b), "(" << (a) << " vs " << (b) << ")")
#define STISAN_CHECK_LT(a, b) STISAN_CHECK_MSG((a) < (b), "(" << (a) << " vs " << (b) << ")")
#define STISAN_CHECK_LE(a, b) STISAN_CHECK_MSG((a) <= (b), "(" << (a) << " vs " << (b) << ")")
#define STISAN_CHECK_GT(a, b) STISAN_CHECK_MSG((a) > (b), "(" << (a) << " vs " << (b) << ")")
#define STISAN_CHECK_GE(a, b) STISAN_CHECK_MSG((a) >= (b), "(" << (a) << " vs " << (b) << ")")

#ifdef NDEBUG
#define STISAN_DCHECK(cond) STISAN_CHECK(true || (cond))
#else
#define STISAN_DCHECK(cond) STISAN_CHECK(cond)
#endif
