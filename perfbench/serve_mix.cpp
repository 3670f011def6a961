#include "serve_mix.hpp"

#include <poll.h>

#include <algorithm>
#include <cmath>
#include <chrono>
#include <deque>
#include <utility>

#include "serve/client.hpp"
#include "util/wire.hpp"

namespace perfbench {

using nfacount::ByteReader;
using nfacount::ByteWriter;
using nfacount::EngineSession;
using nfacount::Result;
using nfacount::Word;
namespace serve = nfacount::serve;

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string CountBody(double value) {
  ByteWriter w;
  w.F64(value);
  return std::move(w.buffer());
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) h = (h ^ c) * 1099511628211ULL;
  return h;
}

struct InFlight {
  MixRequest req;
  int64_t sent_ns = 0;
};

struct Connection {
  serve::ServeClient client;
  MixGenerator gen;
  std::deque<InFlight> window;
  int64_t sent = 0;
};

}  // namespace

MixGenerator::MixGenerator(const MixSpec& spec, int connection)
    : spec_(spec),
      rng_(nfacount::Rng::ForSubstream(spec.seed, 0x5e12e,
                                       static_cast<uint64_t>(connection))) {}

MixRequest MixGenerator::Next() {
  MixRequest req;
  const int64_t roll = rng_.UniformInt(0, 99);
  if (roll < 85) {
    req.kind = ReqKind::kCount;
    req.length = static_cast<int32_t>(rng_.UniformInt(1, spec_.max_len));
  } else if (roll < 95) {
    req.kind = ReqKind::kCountFor;
    req.state = static_cast<int32_t>(rng_.UniformInt(0, spec_.num_states - 1));
    req.length = static_cast<int32_t>(rng_.UniformInt(1, spec_.max_len));
  } else {
    req.kind = ReqKind::kSample;
    req.length = spec_.max_len;
  }
  return req;
}

std::string EncodeMixRequest(const MixSpec& spec, const MixRequest& req,
                             serve::MsgType* type) {
  switch (req.kind) {
    case ReqKind::kCount: {
      *type = serve::MsgType::kCount;
      serve::CountRequest r;
      r.name = spec.session;
      r.length = req.length;
      return serve::EncodeCount(r);
    }
    case ReqKind::kCountFor: {
      *type = serve::MsgType::kCountState;
      serve::CountStateRequest r;
      r.name = spec.session;
      r.state = req.state;
      r.length = req.length;
      return serve::EncodeCountState(r);
    }
    case ReqKind::kSample:
      break;
  }
  *type = serve::MsgType::kSample;
  serve::SampleRequest r;
  r.name = spec.session;
  r.length = req.length;
  r.count = kSampleWords;
  return serve::EncodeSample(r);
}

const std::string& MixReference::For(const MixSpec& spec,
                                     const MixRequest& req) const {
  if (req.kind == ReqKind::kCount) return count[req.length];
  return count_for[static_cast<size_t>(req.state) * (spec.max_len + 1) +
                   req.length];
}

Result<MixReference> BuildMixReference(EngineSession* reference,
                                       const MixSpec& spec) {
  MixReference out;
  out.count.resize(spec.max_len + 1);
  out.count_for.resize(static_cast<size_t>(spec.num_states) *
                       (spec.max_len + 1));
  for (int len = 1; len <= spec.max_len; ++len) {
    Result<double> c = reference->CountAtLength(len);
    if (!c.ok()) return c.status();
    out.count[len] = CountBody(*c);
    for (int q = 0; q < spec.num_states; ++q) {
      Result<double> cq = reference->CountFor(q, len);
      if (!cq.ok()) return cq.status();
      out.count_for[static_cast<size_t>(q) * (spec.max_len + 1) + len] =
          CountBody(*cq);
    }
  }
  return out;
}

double QuantileUs(std::vector<int64_t> ns, double q) {
  if (ns.empty()) return 0.0;
  std::sort(ns.begin(), ns.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(ns.size())));
  return static_cast<double>(ns[std::max<size_t>(rank, 1) - 1]) * 1e-3;
}

MixResult RunMix(uint16_t port, const MixSpec& spec,
                 const MixReference& reference, double seconds,
                 int64_t total_requests) {
  MixResult out;
  std::vector<Connection> conns;
  for (int c = 0; c < kConnections; ++c) {
    Result<serve::ServeClient> connected = serve::ServeClient::Connect(port);
    if (!connected.ok()) {
      out.attempted = out.failed = 1;
      return out;
    }
    conns.push_back({std::move(connected).value(), MixGenerator(spec, c), {}});
  }
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  const int64_t quota = total_requests / kConnections;
  std::vector<int64_t> count_ns;
  std::vector<int64_t> sample_ns;
  auto may_send = [&](const Connection& conn) {
    if (total_requests > 0) return conn.sent < quota;
    return NowNs() < deadline;
  };
  // Tops the connection's window up to the pipeline depth; false when the
  // connection broke (its in-flight requests are then lost).
  auto fill = [&](Connection* conn) {
    while (conn->window.size() < static_cast<size_t>(kDepth) &&
           may_send(*conn)) {
      InFlight f;
      f.req = conn->gen.Next();
      f.sent_ns = NowNs();
      serve::MsgType type = serve::MsgType::kPing;
      const std::string payload = EncodeMixRequest(spec, f.req, &type);
      ++out.attempted;
      ++conn->sent;
      if (!conn->client.SendRequest(type, payload).ok()) {
        out.failed += 1 + static_cast<int64_t>(conn->window.size());
        conn->window.clear();
        return false;
      }
      conn->window.push_back(f);
    }
    return true;
  };
  std::vector<bool> live(conns.size(), true);
  for (size_t c = 0; c < conns.size(); ++c) live[c] = fill(&conns[c]);
  std::vector<pollfd> fds(conns.size());
  for (;;) {
    size_t waiting = 0;
    for (size_t c = 0; c < conns.size(); ++c) {
      const bool wait = live[c] && !conns[c].window.empty();
      fds[c] = {wait ? conns[c].client.socket().fd() : -1, POLLIN, 0};
      waiting += wait;
    }
    if (waiting == 0) break;
    if (::poll(fds.data(), fds.size(), 10000) <= 0) {
      for (Connection& conn : conns) out.failed += conn.window.size();
      break;
    }
    for (size_t c = 0; c < conns.size(); ++c) {
      if (fds[c].fd < 0 || fds[c].revents == 0) continue;
      Connection& conn = conns[c];
      Result<std::string> body = conn.client.ReadReplyBody();
      const int64_t done = NowNs();
      const InFlight f = conn.window.front();
      conn.window.pop_front();
      if (!body.ok()) {
        out.failed += 1 + static_cast<int64_t>(conn.window.size());
        conn.window.clear();
        live[c] = false;
        continue;
      }
      ++out.replies;
      if (f.req.kind == ReqKind::kSample) {
        sample_ns.push_back(done - f.sent_ns);
        ByteReader r(body->data(), body->size());
        SampleReply sample;
        if (!r.I64(&sample.cursor).ok()) sample.cursor = -1;
        sample.hash = Fnv1a(*body);
        out.samples.push_back(sample);
      } else {
        if (f.req.kind == ReqKind::kCount) count_ns.push_back(done - f.sent_ns);
        if (*body != reference.For(spec, f.req)) ++out.failed;
      }
      live[c] = fill(&conn);
    }
  }
  out.seconds = static_cast<double>(NowNs() - start) * 1e-9;
  out.count_p50_us = QuantileUs(count_ns, 0.50);
  out.count_p99_us = QuantileUs(count_ns, 0.99);
  out.sample_p99_us = QuantileUs(std::move(sample_ns), 0.99);
  return out;
}

int64_t VerifySamples(EngineSession* reference, const MixSpec& spec,
                      std::vector<SampleReply> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const SampleReply& a, const SampleReply& b) {
              return a.cursor < b.cursor;
            });
  int64_t failed = 0;
  for (const SampleReply& sample : samples) {
    int64_t start = 0;
    Result<std::vector<Word>> words =
        reference->SharedSampleWords(spec.max_len, kSampleWords, &start);
    if (!words.ok()) {
      ++failed;
      continue;
    }
    ByteWriter w;
    w.I64(start);
    w.U64(words->size());
    for (const Word& word : *words) serve::WriteWord(word, &w);
    if (sample.cursor != start || sample.hash != Fnv1a(w.buffer())) ++failed;
  }
  return failed;
}

}  // namespace perfbench
