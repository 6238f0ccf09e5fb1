#include "util/ipv4.h"

namespace flowdiff {

std::string Ipv4::to_string() const {
  std::string out;
  out.reserve(15);
  for (int shift = 24; shift >= 0; shift -= 8) {
    if (!out.empty()) out.push_back('.');
    out += std::to_string((raw_ >> shift) & 0xffu);
  }
  return out;
}

const char* Ipv4::parse_prefix(const char* first, const char* last,
                               Ipv4& out) {
  std::uint32_t raw = 0;
  const char* p = first;
  for (int octet = 0; octet < 4; ++octet) {
    if (octet > 0) {
      if (p == last || *p != '.') return nullptr;
      ++p;
    }
    const char* digits = p;
    unsigned value = 0;
    for (; p != last; ++p) {
      const unsigned d = static_cast<unsigned char>(*p) - unsigned{'0'};
      if (d > 9) break;
      value = value * 10 + d;
      if (value > 255) return nullptr;  // Digits only ever grow the value.
    }
    if (p == digits) return nullptr;
    raw = (raw << 8) | value;
  }
  out = Ipv4{raw};
  return p;
}

std::optional<Ipv4> Ipv4::parse(std::string_view text) {
  Ipv4 ip;
  const char* end = text.data() + text.size();
  const char* stop = parse_prefix(text.data(), end, ip);
  if (stop == nullptr || stop != end) return std::nullopt;
  return ip;
}

}  // namespace flowdiff
