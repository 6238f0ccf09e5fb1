// IPv4 address value type used to identify flow endpoints.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace flowdiff {

/// An IPv4 address stored in host byte order.
class Ipv4 {
 public:
  constexpr Ipv4() = default;
  constexpr explicit Ipv4(std::uint32_t raw) : raw_(raw) {}
  constexpr Ipv4(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                 std::uint8_t d)
      : raw_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
             (std::uint32_t{c} << 8) | std::uint32_t{d}) {}

  [[nodiscard]] constexpr std::uint32_t raw() const { return raw_; }

  /// Dotted-quad rendering, e.g. "10.0.1.7".
  [[nodiscard]] std::string to_string() const;

  /// Parses dotted-quad text; nullopt on malformed input.
  static std::optional<Ipv4> parse(std::string_view text);

  /// The dotted-quad grammar itself: four 1+ digit octets (each <= 255,
  /// leading zeros allowed) joined by '.', read from the front of
  /// [first, last). Returns the end of the quad, or nullptr when none
  /// starts there. parse() is this plus "nothing follows"; the log scanner
  /// calls it in place on a line and checks the token ends there.
  static const char* parse_prefix(const char* first, const char* last,
                                  Ipv4& out);

  friend constexpr auto operator<=>(Ipv4, Ipv4) = default;

 private:
  std::uint32_t raw_ = 0;
};

}  // namespace flowdiff

namespace std {
template <>
struct hash<flowdiff::Ipv4> {
  size_t operator()(flowdiff::Ipv4 ip) const noexcept {
    return std::hash<std::uint32_t>{}(ip.raw());
  }
};
}  // namespace std
