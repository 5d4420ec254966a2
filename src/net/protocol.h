// The EMOGI wire protocol: a versioned, length-prefixed, checksummed
// binary framing for runtime::Request / runtime::Response, spoken by
// net::Listener (server) and net::Client over Unix-domain and TCP
// loopback sockets.
//
// Frame layout (all integers little-endian, fixed offsets):
//
//   offset  size  field
//        0     4  magic        0x49474D45 ("EMGI" on the wire)
//        4     2  version      kWireVersion (1); any other value is
//                              rejected kBadVersion -- a version-skewed
//                              peer is told loudly, never half-parsed
//        6     2  type         FrameType
//        8     4  payload_len  bytes following the header
//                              (<= kMaxPayloadBytes, else kOversized)
//       12     4  checksum     FNV-1a 32 over the payload bytes
//       16     N  payload      type-specific message encoding
//
// Decoding is loud by construction: DecodeFrame either returns a whole
// verified frame, reports kIncomplete (more bytes needed -- also the
// "truncated" signal when the peer closes mid-frame), or returns a
// typed error, after which the connection's framing is lost and the
// peer must be dropped. A corrupted frame can therefore never be
// half-served: bit flips land in kBadMagic / kBadVersion / kBadType /
// kBadChecksum, an absurd length in kOversized, and a short read stays
// kIncomplete until more bytes arrive or the stream ends.
//
// Conversation: the client opens with kHello (tenant name + scheduling
// weight, the multi-tenant admission identity), the server answers
// kHelloAck (shard count + wave width), then any number of kRequest
// frames are answered by kRequest-id-matched kResponse frames --
// responses come back in *dispatch* order, not submission order
// (immediate rejections overtake queued work), so the id is the only
// correlation. kError reports a protocol-level failure and is followed
// by connection close; kGoodbye asks the server to flush and close.

#ifndef EMOGI_NET_PROTOCOL_H_
#define EMOGI_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/query_service.h"

namespace emogi::net {

inline constexpr std::uint32_t kWireMagic = 0x49474D45u;  // "EMGI".
inline constexpr std::uint16_t kWireVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 16;
// Caps a frame's declared payload so a corrupted length field cannot
// make the reader wait on (or allocate) gigabytes.
inline constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;
inline constexpr std::uint32_t kMaxTenantBytes = 256;
inline constexpr std::uint32_t kMaxErrorMessageBytes = 1024;

enum class FrameType : std::uint16_t {
  kHello = 1,     // client -> server: tenant + weight.
  kHelloAck = 2,  // server -> client: shard count + wave width.
  kRequest = 3,   // client -> server: one traversal request.
  kResponse = 4,  // server -> client: one answer (id-matched).
  kError = 5,     // server -> client: typed protocol error, then close.
  kGoodbye = 6,   // client -> server: flush my responses and close.
};

const char* ToString(FrameType type);

enum class DecodeStatus {
  kOk,
  kIncomplete,   // Not an error: need more bytes (or the peer truncated).
  kBadMagic,
  kBadVersion,   // Version skew: peer speaks a different protocol rev.
  kBadType,
  kOversized,    // Declared payload exceeds kMaxPayloadBytes.
  kBadChecksum,  // Payload bytes do not hash to the header checksum.
};

const char* ToString(DecodeStatus status);

// Typed protocol-error codes carried by kError frames.
enum class ErrorCode : std::uint32_t {
  kMalformedFrame = 1,      // Framing lost (magic/type/length/checksum).
  kVersionSkew = 2,         // Peer's frame version != kWireVersion.
  kBadMessage = 3,          // Frame ok, payload undecodable.
  kHelloRequired = 4,       // First frame must be kHello.
  kDuplicateHello = 5,      // kHello after the handshake completed.
  kUnexpectedType = 6,      // A type the receiving side never accepts.
  kTooManyConnections = 7,  // Accept refused: --max-conns reached.
};

const char* ToString(ErrorCode code);

struct Frame {
  FrameType type = FrameType::kError;
  std::vector<std::uint8_t> payload;
};

// FNV-1a 32 over `size` bytes -- the frame payload checksum.
std::uint32_t Fnv1a32(const std::uint8_t* data, std::size_t size);

// Appends one whole frame (header + payload) to `out`.
void AppendFrame(std::vector<std::uint8_t>* out, FrameType type,
                 const std::uint8_t* payload, std::size_t payload_size);

// Tries to decode one frame from the front of [data, data+size).
// kOk: *frame is filled and *consumed is the frame's total size.
// kIncomplete: nothing consumed, call again with more bytes.
// Any other status: nothing consumed and the stream's framing is lost
// -- the caller must report the typed error and drop the connection.
DecodeStatus DecodeFrame(const std::uint8_t* data, std::size_t size,
                         Frame* frame, std::size_t* consumed);

// --- Message encodings (one per frame type) --------------------------------

struct HelloMsg {
  std::string tenant;        // Scheduling identity (<= kMaxTenantBytes).
  std::uint32_t weight = 1;  // WFQ weight; the listener clamps to >= 1.
};

struct HelloAckMsg {
  std::uint32_t num_graphs = 0;  // Resident shards, ids [0, num_graphs).
  std::uint32_t max_lanes = 0;   // Server wave width K.
};

struct RequestMsg {
  std::uint64_t id = 0;  // Client-chosen, echoed on the response.
  runtime::Request request;
};

struct ResponseMsg {
  std::uint64_t id = 0;
  // Server-wide dispatch sequence number (1-based) of served requests,
  // stamped in DRR pop order; 0 for answers that never reached a wave
  // (kInvalidSource / kOverloaded / kDeadlineExceeded). Totally orders
  // service across tenants, which is what the WFQ isolation gates
  // measure.
  std::uint64_t serve_seq = 0;
  // Wall-clock ns from admission to wave completion on the server
  // (for kDeadlineExceeded, to the pop that shed it; 0 for immediate
  // rejections).
  std::uint64_t latency_ns = 0;
  runtime::Response response;
};

struct ErrorMsg {
  ErrorCode code = ErrorCode::kMalformedFrame;
  std::string message;  // Human-readable detail (<= kMaxErrorMessageBytes).
};

// Each Encode* returns the complete frame (header + payload), ready to
// append to a write buffer; each Decode* parses a verified frame's
// payload and returns false on any structural violation (bad length,
// unknown enum value, truncated array) without touching *out partially
// observable state the caller would act on.
std::vector<std::uint8_t> EncodeHello(const HelloMsg& msg);
bool DecodeHello(const std::vector<std::uint8_t>& payload, HelloMsg* out);

std::vector<std::uint8_t> EncodeHelloAck(const HelloAckMsg& msg);
bool DecodeHelloAck(const std::vector<std::uint8_t>& payload,
                    HelloAckMsg* out);

std::vector<std::uint8_t> EncodeRequest(const RequestMsg& msg);
bool DecodeRequest(const std::vector<std::uint8_t>& payload, RequestMsg* out);

std::vector<std::uint8_t> EncodeResponse(const ResponseMsg& msg);
bool DecodeResponse(const std::vector<std::uint8_t>& payload,
                    ResponseMsg* out);

std::vector<std::uint8_t> EncodeError(const ErrorMsg& msg);
bool DecodeError(const std::vector<std::uint8_t>& payload, ErrorMsg* out);

std::vector<std::uint8_t> EncodeGoodbye();

}  // namespace emogi::net

#endif  // EMOGI_NET_PROTOCOL_H_
