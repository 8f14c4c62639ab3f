// Status codes and a lightweight Result<T> used across the exokernel interfaces.
//
// The simulated kernel ABI reports errors by value (no exceptions cross the syscall
// boundary), mirroring how a real kernel returns errno-style codes.
#ifndef EXO_SIM_STATUS_H_
#define EXO_SIM_STATUS_H_

#include <iosfwd>
#include <utility>
#include <variant>

#include "sim/check.h"

namespace exo {

enum class Status : int {
  kOk = 0,
  kPermissionDenied,   // capability does not dominate the required guard
  kNotFound,           // no such object (block, env, file, template, ...)
  kAlreadyExists,
  kInvalidArgument,
  kOutOfResources,     // allocation denied: no frames / blocks / slots left
  kWouldBlock,         // operation cannot complete without sleeping
  kBusy,               // resource locked or pinned by another principal
  kTainted,            // XN refused to write a tainted block reachable from a root
  kBadMetadata,        // UDF verification rejected a proposed metadata update
  kVerifierReject,     // downloaded code failed static verification
  kNotSupported,
  kIoError,
  kCrashed,            // simulated crash injected
  kQuotaExceeded,      // per-env resource quota would be exceeded
  kCorrupted,          // integrity check failed: media holds detectably wrong bytes
};

// Human-readable name for diagnostics and test failure messages.
const char* StatusName(Status s);
// Prints StatusName(s); gtest finds it, so failed assertions name the status.
void PrintTo(Status s, std::ostream* os);

// Result<T> is a minimal expected-like type: either a value or a non-kOk Status.
template <typename T>
class Result {
 public:
  Result(T value) : v_(std::move(value)) {}          // NOLINT(google-explicit-constructor)
  Result(Status s) : v_(s) { EXO_CHECK(s != Status::kOk); }  // NOLINT

  bool ok() const { return std::holds_alternative<T>(v_); }
  Status status() const { return ok() ? Status::kOk : std::get<Status>(v_); }

  T& value() {
    EXO_CHECK(ok());
    return std::get<T>(v_);
  }
  const T& value() const {
    EXO_CHECK(ok());
    return std::get<T>(v_);
  }
  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Status> v_;
};

}  // namespace exo

#endif  // EXO_SIM_STATUS_H_
