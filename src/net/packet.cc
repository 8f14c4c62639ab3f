#include "net/packet.h"

namespace exo::net {

namespace {

void PutU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
}
void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}
uint16_t GetU16(std::span<const uint8_t> b, size_t off) {
  return static_cast<uint16_t>(b[off] | (b[off + 1] << 8));
}
uint32_t GetU32(std::span<const uint8_t> b, size_t off) {
  return static_cast<uint32_t>(b[off]) | (static_cast<uint32_t>(b[off + 1]) << 8) |
         (static_cast<uint32_t>(b[off + 2]) << 16) | (static_cast<uint32_t>(b[off + 3]) << 24);
}

}  // namespace

uint32_t Checksum(std::span<const uint8_t> data) {
  uint64_t sum = 0;
  size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<uint16_t>(data[i] | (data[i + 1] << 8));
  }
  if (i < data.size()) {
    sum += data[i];
  }
  while (sum >> 32) {
    sum = (sum & 0xffffffff) + (sum >> 32);
  }
  return static_cast<uint32_t>(sum);
}

uint32_t ChecksumCombine(uint32_t even_prefix_sum, uint32_t suffix_sum) {
  uint64_t sum = static_cast<uint64_t>(even_prefix_sum) + suffix_sum;
  while (sum >> 32) {
    sum = (sum & 0xffffffff) + (sum >> 32);
  }
  return static_cast<uint32_t>(sum);
}

hw::Packet EncodeTcp(const TcpSegment& seg) { return EncodeTcp(seg, seg.payload); }

hw::Packet EncodeTcp(const TcpSegment& seg, std::span<const uint8_t> head,
                     std::span<const uint8_t> tail) {
  hw::Packet p = EncodeTcp(seg, head);
  p.bytes.insert(p.bytes.end(), tail.begin(), tail.end());
  return p;
}

hw::Packet EncodeTcp(const TcpSegment& seg, std::span<const uint8_t> payload) {
  hw::Packet p;
  p.bytes.reserve(kIpHeaderBytes + kTcpHeaderBytes + payload.size());
  p.bytes.push_back(kProtoTcp);
  PutU32(p.bytes, seg.src_ip);
  PutU32(p.bytes, seg.dst_ip);
  PutU16(p.bytes, 0);  // pad to kIpHeaderBytes
  p.bytes.push_back(0);
  PutU16(p.bytes, seg.src_port);
  PutU16(p.bytes, seg.dst_port);
  PutU32(p.bytes, seg.seq);
  PutU32(p.bytes, seg.ack);
  p.bytes.push_back(seg.flags);
  p.bytes.push_back(0);
  PutU16(p.bytes, seg.window);
  PutU32(p.bytes, seg.checksum);
  p.bytes.insert(p.bytes.end(), payload.begin(), payload.end());
  return p;
}

std::optional<TcpSegment> DecodeTcp(const hw::Packet& p) {
  if (p.bytes.size() < kIpHeaderBytes + kTcpHeaderBytes || p.bytes[0] != kProtoTcp) {
    return std::nullopt;
  }
  TcpSegment s;
  std::span<const uint8_t> b = p.bytes;
  s.src_ip = GetU32(b, 1);
  s.dst_ip = GetU32(b, 5);
  size_t t = kIpHeaderBytes;
  s.src_port = GetU16(b, t);
  s.dst_port = GetU16(b, t + 2);
  s.seq = GetU32(b, t + 4);
  s.ack = GetU32(b, t + 8);
  s.flags = b[t + 12];
  s.window = GetU16(b, t + 14);
  s.checksum = GetU32(b, t + 16);
  s.payload.assign(b.begin() + kIpHeaderBytes + kTcpHeaderBytes, b.end());
  return s;
}

}  // namespace exo::net
