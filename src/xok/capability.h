// Hierarchically-named capabilities (Sec. 5.1, after Mazieres & Kaashoek [31]).
//
// Despite the name these resemble a generalized form of UNIX user/group IDs more than
// classical object capabilities: a capability is a path in a global name hierarchy,
// and a credential grants access to a resource whose guard name it is a prefix of.
// All Xok calls require explicit credentials; a buggy child that requests write access
// to its parent's page with the wrong capability is simply denied (Sec. 3.3).
#ifndef EXO_XOK_CAPABILITY_H_
#define EXO_XOK_CAPABILITY_H_

#include <cstdint>
#include <initializer_list>
#include <vector>

namespace exo::xok {

// A name in the hierarchy, e.g. {kUserSpace, uid} or {kFsSpace, fsid, inode_group}.
using CapName = std::vector<uint16_t>;

// Conventional top-level name spaces (pure convention; the kernel does not interpret).
constexpr uint16_t kCapRoot = 0;     // the empty-prefix superuser capability
constexpr uint16_t kCapUsers = 1;    // {kCapUsers, uid, ...}
constexpr uint16_t kCapGroups = 2;   // {kCapGroups, gid}
constexpr uint16_t kCapFs = 3;       // file-system-defined subspaces
constexpr uint16_t kCapEnvs = 4;     // per-environment private space

struct Capability {
  CapName name;
  bool write = true;  // write access implies read access

  static Capability Root() { return Capability{{}, true}; }
  static Capability For(std::initializer_list<uint16_t> parts, bool w = true) {
    return Capability{CapName(parts), w};
  }

  bool operator==(const Capability&) const = default;
};

// True when `cred` grants `need_write` access to a resource guarded by `guard_name`:
// the credential's name must be a (non-strict) prefix of the guard name, and write
// access requires a write-capable credential.
inline bool Dominates(const Capability& cred, const CapName& guard_name, bool need_write) {
  if (need_write && !cred.write) {
    return false;
  }
  if (cred.name.size() > guard_name.size()) {
    return false;
  }
  for (size_t i = 0; i < cred.name.size(); ++i) {
    if (cred.name[i] != guard_name[i]) {
      return false;
    }
  }
  return true;
}

// Credential selector passed on every syscall. A non-negative value names one
// capability in the caller's list (the explicit-credential discipline the paper
// advocates); kCredAny tries each held capability in order, charging per check.
using CredIndex = int32_t;
constexpr CredIndex kCredAny = -1;

}  // namespace exo::xok

#endif  // EXO_XOK_CAPABILITY_H_
