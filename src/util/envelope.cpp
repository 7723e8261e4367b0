#include "util/envelope.hpp"

#include <cstring>
#include <string>

#include "util/hash.hpp"

namespace dice::util {

Bytes Envelope::seal(std::span<const std::uint8_t> body) const {
  ByteWriter out(body.size() + magic.size() + 9);
  out.raw(std::span(reinterpret_cast<const std::uint8_t*>(magic.data()), magic.size()));
  out.u8(version);
  out.u64(fnv1a(body));
  out.raw(body);
  return std::move(out).take();
}

Result<std::span<const std::uint8_t>> Envelope::open(std::span<const std::uint8_t> data) const {
  ByteReader reader(data);
  auto head = reader.raw(magic.size());
  if (!head) return head.error();
  if (std::memcmp(head.value().data(), magic.data(), magic.size()) != 0) {
    return make_error(magic_code, "not a " + std::string(magic) + " envelope");
  }
  auto found = reader.u8();
  if (!found) return found.error();
  if (found.value() != version) {
    return make_error(version_code, "unknown " + std::string(magic) + " version " +
                                        std::to_string(found.value()));
  }
  auto checksum = reader.u64();
  if (!checksum) return checksum.error();
  const std::span<const std::uint8_t> body = data.subspan(reader.position());
  if (fnv1a(body) != checksum.value()) {
    return make_error(checksum_code, "body checksum does not match");
  }
  return body;
}

}  // namespace dice::util
