#include "sim/status.h"

#include <ostream>

namespace exo {

const char* StatusName(Status s) {
  switch (s) {
    case Status::kOk:
      return "OK";
    case Status::kPermissionDenied:
      return "PERMISSION_DENIED";
    case Status::kNotFound:
      return "NOT_FOUND";
    case Status::kAlreadyExists:
      return "ALREADY_EXISTS";
    case Status::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case Status::kOutOfResources:
      return "OUT_OF_RESOURCES";
    case Status::kWouldBlock:
      return "WOULD_BLOCK";
    case Status::kBusy:
      return "BUSY";
    case Status::kTainted:
      return "TAINTED";
    case Status::kBadMetadata:
      return "BAD_METADATA";
    case Status::kVerifierReject:
      return "VERIFIER_REJECT";
    case Status::kNotSupported:
      return "NOT_SUPPORTED";
    case Status::kIoError:
      return "IO_ERROR";
    case Status::kCrashed:
      return "CRASHED";
    case Status::kQuotaExceeded:
      return "QUOTA_EXCEEDED";
    case Status::kCorrupted:
      return "CORRUPTED";
  }
  return "UNKNOWN";
}

void PrintTo(Status s, std::ostream* os) { *os << StatusName(s); }

}  // namespace exo
