#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace pgmr_bench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::int64_t MemberBatch::end() const {
  std::int64_t last = prep_end;
  for (const std::int64_t t : layer_end) {
    if (t != 0) last = t;
  }
  return last;
}

void MemberSpans::begin_batch(std::int64_t n) {
  if (!armed_) return;
  MemberBatch& b = buf_.emplace_back();
  b.n = n;
  b.prep_begin = now_ns();
}

void MemberSpans::end_prep() {
  if (armed_) buf_.back().prep_end = now_ns();
}

void MemberSpans::end_layer(int layer) {
  if (armed_ && layer >= 0 && layer < kMaxLayers) {
    buf_.back().layer_end[static_cast<std::size_t>(layer)] = now_ns();
  }
}

pgmr::Tensor TimingPrep::apply(const pgmr::Tensor& images) const {
  spans_->begin_batch(images.shape()[0]);
  pgmr::Tensor out = inner_->apply(images);
  spans_->end_prep();
  return out;
}

namespace {

/// One batch of one shard and the requests it served.
struct BatchRef {
  std::size_t shard = 0;
  std::size_t index = 0;                 ///< batch number within the shard
  std::vector<std::size_t> requests;     ///< RequestLog slots, FIFO order
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

/// Batch b of a shard is recorded by every member (each member runs once
/// per batch) and takes the next N of the shard's requests in FIFO order.
std::vector<BatchRef> map_batches(const RequestLog& log,
                                  const std::vector<ReplicaSpans>& replicas) {
  std::vector<BatchRef> out;
  for (std::size_t s = 0; s < replicas.size(); ++s) {
    const ReplicaSpans& members = replicas[s];
    if (members.empty()) continue;
    std::vector<std::size_t> fifo;
    for (std::size_t i = 0; i < log.size(); ++i) {
      if (log[i].shard == static_cast<std::int32_t>(s)) fifo.push_back(i);
    }
    std::size_t batches = members[0]->size();
    for (const auto& m : members) batches = std::min(batches, m->size());
    std::size_t cursor = 0;
    for (std::size_t b = 0; b < batches; ++b) {
      const auto n = static_cast<std::size_t>((*members[0])[b].n);
      if (cursor + n > fifo.size()) break;
      BatchRef ref;
      ref.shard = s;
      ref.index = b;
      const auto first = fifo.begin() + static_cast<std::ptrdiff_t>(cursor);
      ref.requests.assign(first, first + static_cast<std::ptrdiff_t>(n));
      cursor += n;
      ref.begin = (*members[0])[b].prep_begin;
      ref.end = (*members[0])[b].end();
      for (const auto& m : members) {
        ref.begin = std::min(ref.begin, (*m)[b].prep_begin);
        ref.end = std::max(ref.end, (*m)[b].end());
      }
      out.push_back(std::move(ref));
    }
  }
  return out;
}

std::size_t prep_slot(const std::string& prep) {
  const auto& specs = all_prep_specs();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i] == prep) return i;
  }
  throw std::invalid_argument("unknown preprocessor " + prep);
}

}  // namespace

SpanReport analyze_spans(const RequestLog& log,
                         const std::vector<ReplicaSpans>& replicas,
                         std::int64_t ws, std::int64_t we) {
  SpanReport rep;
  rep.prep_us.assign(all_prep_specs().size(), 0.0);
  for (const BatchRef& b : map_batches(log, replicas)) {
    if (b.begin < ws || b.end > we) continue;
    ++rep.batches;
    rep.batched_requests += static_cast<std::int64_t>(b.requests.size());
    rep.batch_us.push_back(static_cast<double>(b.end - b.begin) / 1e3);
    std::int64_t fastest = INT64_MAX;
    std::int64_t slowest = 0;
    for (const auto& member : replicas[b.shard]) {
      const MemberBatch& mb = (*member)[b.index];
      const std::int64_t span = mb.end() - mb.prep_begin;
      fastest = std::min(fastest, span);
      slowest = std::max(slowest, span);
      rep.member_us += static_cast<double>(span) / 1e3;
      rep.prep_us[prep_slot(member->prep())] +=
          static_cast<double>(mb.prep_end - mb.prep_begin) / 1e3;
      std::int64_t prev = mb.prep_end;
      for (std::size_t l = 0; l < mb.layer_end.size(); ++l) {
        if (mb.layer_end[l] == 0) continue;
        const double us = static_cast<double>(mb.layer_end[l] - prev) / 1e3;
        rep.layer_us[l] += us;
        rep.layers_us += us;
        prev = mb.layer_end[l];
      }
    }
    rep.skew_us.push_back(static_cast<double>(slowest - fastest) / 1e3);
    for (const std::size_t slot : b.requests) {
      const RequestRecord& r = log[slot];
      if (r.failed || r.done <= r.submit_begin) continue;
      const double wait = static_cast<double>(b.begin - r.submit_begin);
      rep.wait_us.push_back(wait / 1e3);
      rep.accounted.push_back((wait + static_cast<double>(b.end - b.begin)) /
                              static_cast<double>(r.done - r.submit_begin));
    }
  }
  if (rep.batched_requests > 0) {
    const auto per_req = static_cast<double>(rep.batched_requests);
    rep.member_us /= per_req;
    rep.layers_us /= per_req;
    for (double& v : rep.layer_us) v /= per_req;
    for (double& v : rep.prep_us) v /= per_req;
  }
  return rep;
}

void write_chrome_trace(const std::string& path, const RequestLog& log,
                        const std::vector<ReplicaSpans>& replicas,
                        std::size_t max_batches) {
  std::vector<BatchRef> batches = map_batches(log, replicas);
  if (batches.empty()) return;
  std::int64_t origin = INT64_MAX;
  for (const BatchRef& b : batches) origin = std::min(origin, b.begin);
  for (std::size_t i = 0; i < log.size(); ++i) {
    origin = std::min(origin, log[i].submit_begin);
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  bool first = true;
  const auto event = [&](const std::string& name, int pid, int tid,
                         std::int64_t begin, std::int64_t end,
                         const std::string& args) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}",
                  first ? "" : ",\n", name.c_str(), pid, tid,
                  static_cast<double>(begin - origin) / 1e3,
                  static_cast<double>(end - begin) / 1e3, args.c_str());
    out << buf;
    first = false;
  };
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  // pid 1: requests (one track per shard); pid 2+s: shard s's batches
  // (tid 0) and members (tid 1+m) with their prep and layer children.
  for (const BatchRef& b : batches) {
    if (b.index >= max_batches) continue;
    const int pid = 2 + static_cast<int>(b.shard);
    const std::string batch_id = std::to_string(b.shard) + "." +
                                 std::to_string(b.index);
    event("batch", pid, 0, b.begin, b.end,
          "\"batch\":\"" + batch_id + "\",\"n\":" +
              std::to_string(b.requests.size()));
    for (const std::size_t slot : b.requests) {
      const RequestRecord& r = log[slot];
      event("request", 1, static_cast<int>(b.shard), r.submit_begin, r.done,
            "\"request\":" + std::to_string(slot) + ",\"input\":" +
                std::to_string(r.input) + ",\"parent\":\"batch " + batch_id +
                "\"");
    }
    const ReplicaSpans& members = replicas[b.shard];
    for (std::size_t m = 0; m < members.size(); ++m) {
      const MemberBatch& mb = (*members[m])[b.index];
      const int tid = 1 + static_cast<int>(m);
      const std::string parent = "\"batch\":\"" + batch_id + "\"";
      event("member " + members[m]->prep(), pid, tid, mb.prep_begin, mb.end(),
            parent + ",\"parent\":\"batch " + batch_id + "\"");
      event("prep " + members[m]->prep(), pid, tid, mb.prep_begin,
            mb.prep_end, parent + ",\"parent\":\"member\"");
      std::int64_t prev = mb.prep_end;
      for (std::size_t l = 0; l < mb.layer_end.size(); ++l) {
        if (mb.layer_end[l] == 0) continue;
        event(std::string("l").append(std::to_string(l)), pid, tid, prev,
              mb.layer_end[l],
              parent + ",\"parent\":\"member\"");
        prev = mb.layer_end[l];
      }
    }
  }
  out << "\n]}\n";
}

}  // namespace pgmr_bench
