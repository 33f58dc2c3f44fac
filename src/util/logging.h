// Minimal CHECK/LOG facility.
//
// CHECK(cond) << "context";  aborts with the streamed context when cond is false.
// DCHECK compiles away in NDEBUG builds.
#ifndef RENONFS_SRC_UTIL_LOGGING_H_
#define RENONFS_SRC_UTIL_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>

namespace renonfs {

class CheckFailureStream {
 public:
  CheckFailureStream(const char* file, int line, const char* condition) {
    stream_ << file << ":" << line << " CHECK failed: " << condition << " ";
  }

  [[noreturn]] ~CheckFailureStream() {
    std::cerr << stream_.str() << std::endl;
    std::abort();
  }

  template <typename T>
  CheckFailureStream& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

// Voidify the stream so CHECK can be used as a statement with no unused-value warning.
struct CheckVoidify {
  template <typename T>
  void operator&(T&&) {}
};

#define CHECK(condition)     \
  (condition) ? (void)0      \
              : ::renonfs::CheckVoidify() & ::renonfs::CheckFailureStream(__FILE__, __LINE__, #condition)

#define CHECK_EQ(a, b) CHECK((a) == (b))
#define CHECK_LT(a, b) CHECK((a) < (b))
#define CHECK_LE(a, b) CHECK((a) <= (b))
#define CHECK_GT(a, b) CHECK((a) > (b))
#define CHECK_GE(a, b) CHECK((a) >= (b))

#ifdef NDEBUG
#define DCHECK(condition) CHECK(true || (condition))
#else
#define DCHECK(condition) CHECK(condition)
#endif

}  // namespace renonfs

#endif  // RENONFS_SRC_UTIL_LOGGING_H_
