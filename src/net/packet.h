// Wire formats for the simulated network: a compact IP+TCP header pair.
//
// Links are point-to-point, so no Ethernet addressing is needed; frames carry an IP
// header directly. Checksums are real (computed over payload bytes), because the
// checksum cost is one of the things Cheetah's precomputed-checksum optimization
// removes (Sec. 7.3) — it has to exist to be removable.
#ifndef EXO_NET_PACKET_H_
#define EXO_NET_PACKET_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "hw/nic.h"

namespace exo::net {

using IpAddr = uint32_t;
using Port = uint16_t;

constexpr uint8_t kProtoTcp = 6;
constexpr uint8_t kProtoUdp = 17;  // non-TCP frames in demux tests and benches

constexpr uint32_t kIpHeaderBytes = 12;
constexpr uint32_t kTcpHeaderBytes = 20;
constexpr uint32_t kMss = hw::kMaxFrameBytes - kIpHeaderBytes - kTcpHeaderBytes;  // 1482

enum TcpFlags : uint8_t {
  kFlagSyn = 1,
  kFlagAck = 2,
  kFlagFin = 4,
  kFlagPsh = 8,
  kFlagRst = 16,
};

struct TcpSegment {
  IpAddr src_ip = 0;
  IpAddr dst_ip = 0;
  Port src_port = 0;
  Port dst_port = 0;
  uint32_t seq = 0;
  uint32_t ack = 0;
  uint8_t flags = 0;
  uint16_t window = 0;
  uint32_t checksum = 0;
  std::vector<uint8_t> payload;
};

// Internet-style ones-complement-ish sum, folded to 32 bits. Cheap to compute in the
// host but *charged* per byte by the protocol code.
uint32_t Checksum(std::span<const uint8_t> data);
// Checksum of a concatenation from the parts' checksums: the word sum is
// additive as long as the first part has even length (its last 16-bit word is
// complete, so the second part's words stay aligned). This is what lets Cheetah
// staple a freshly rendered response header onto a body whose checksum was
// precomputed and stored with the file, without touching the body bytes.
uint32_t ChecksumCombine(uint32_t even_prefix_sum, uint32_t suffix_sum);

hw::Packet EncodeTcp(const TcpSegment& seg);
// Zero-copy variant for the transmit path: encodes seg's headers but takes the
// payload from `payload` (seg.payload is ignored), so callers holding the bytes
// in a send buffer skip the intermediate segment copy.
hw::Packet EncodeTcp(const TcpSegment& seg, std::span<const uint8_t> payload);
// Gather variant: the payload is head‖tail in one frame (Cheetah's batched
// header+body transmission — header from the response cache, body straight
// from the file cache).
hw::Packet EncodeTcp(const TcpSegment& seg, std::span<const uint8_t> head,
                     std::span<const uint8_t> tail);
std::optional<TcpSegment> DecodeTcp(const hw::Packet& p);

// Protocol byte at a fixed offset, so UDF packet filters can demultiplex:
//   offset 0: u8 proto; 1..4 src_ip; 5..8 dst_ip; then the transport header with
//   ports at offsets 9/11 (u16 LE).
constexpr uint32_t kOffProto = 0;
constexpr uint32_t kOffSrcIp = 1;
constexpr uint32_t kOffDstIp = 5;
constexpr uint32_t kOffSrcPort = 9;
constexpr uint32_t kOffDstPort = 11;

}  // namespace exo::net

#endif  // EXO_NET_PACKET_H_
