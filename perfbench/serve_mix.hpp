// Closed-loop serve load for perfbench: a seeded request mix sent over the
// daemon's wire protocol by a fixed set of pipelining connections, with
// exact per-request latencies and reply checking against a reference
// session.
//
// The mix is ~85% Count(len ∈ 1..max_len), ~10% CountFor(q, len) and ~5%
// Sample(max_len, sample_words). Count replies are lock-free reads on warm
// tables; samples serialize on the session's draw mutex, so the mix shows a
// change that favours one kind at the other's cost.

#ifndef NFACOUNT_PERFBENCH_SERVE_MIX_HPP_
#define NFACOUNT_PERFBENCH_SERVE_MIX_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "fpras/session.hpp"
#include "serve/protocol.hpp"
#include "util/rng.hpp"

namespace perfbench {

constexpr int kConnections = 4;   ///< concurrent client connections
constexpr int kDepth = 4;         ///< requests in flight per connection
constexpr int kSampleWords = 16;  ///< words per Sample request

struct MixSpec {
  std::string session;  ///< registered session name
  int max_len = 0;      ///< counts ask lengths 1..max_len; samples max_len
  int num_states = 0;   ///< CountFor asks states 0..num_states-1
  uint64_t seed = 0;    ///< seeds every connection's request stream
};

enum class ReqKind { kCount, kCountFor, kSample };

struct MixRequest {
  ReqKind kind = ReqKind::kCount;
  int32_t length = 0;
  int32_t state = 0;
};

/// The deterministic request stream of one connection.
class MixGenerator {
 public:
  MixGenerator(const MixSpec& spec, int connection);
  MixRequest Next();

 private:
  const MixSpec& spec_;
  nfacount::Rng rng_;
};

/// Wire payload (and message type) of one request.
std::string EncodeMixRequest(const MixSpec& spec, const MixRequest& req,
                             nfacount::serve::MsgType* type);

/// Expected reply bodies of the deterministic (count) requests, taken from a
/// reference session.
struct MixReference {
  std::vector<std::string> count;      ///< [length]
  std::vector<std::string> count_for;  ///< [state * (max_len + 1) + length]

  const std::string& For(const MixSpec& spec, const MixRequest& req) const;
};

nfacount::Result<MixReference> BuildMixReference(
    nfacount::EngineSession* reference, const MixSpec& spec);

/// Exact q-quantile (nearest rank) of latencies in ns, returned in µs; 0
/// for no latencies.
double QuantileUs(std::vector<int64_t> ns, double q);

/// A Sample reply reduced to what checking it needs.
struct SampleReply {
  int64_t cursor = 0;  ///< draw-stream cursor the chunk started at
  uint64_t hash = 0;   ///< hash of the reply body
};

struct MixResult {
  int64_t attempted = 0;  ///< requests sent
  int64_t failed = 0;     ///< error replies, wrong replies, lost requests
  double seconds = 0.0;   ///< wall time from first send to last reply
  int64_t replies = 0;    ///< requests answered
  double count_p50_us = 0.0;  ///< exact client-side Count latencies
  double count_p99_us = 0.0;
  double sample_p99_us = 0.0;
  std::vector<SampleReply> samples;
};

/// Runs the closed loop against the daemon on `port` from one client thread
/// that polls every connection, so the load generator adds one thread to
/// the daemon's reactor and workers. Stops sending after `seconds` when
/// `total_requests` is 0, else after `total_requests` requests (rounded
/// down to a multiple of the connection count); in-flight replies are
/// always drained.
MixResult RunMix(uint16_t port, const MixSpec& spec,
                 const MixReference& reference, double seconds,
                 int64_t total_requests);

/// Checks every Sample reply against the reference session's draw stream:
/// sorted by stream cursor, the replies must be exactly the chunks a
/// single caller draws in sequence from a fresh session. Returns the number
/// of replies that differ.
int64_t VerifySamples(nfacount::EngineSession* reference, const MixSpec& spec,
                      std::vector<SampleReply> samples);

}  // namespace perfbench

#endif  // NFACOUNT_PERFBENCH_SERVE_MIX_HPP_
