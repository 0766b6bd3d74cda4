#include "cluster/wal_receiver.h"

#include <algorithm>
#include <utility>

#include "cluster/shard_log.h"
#include "obs/trace.h"
#include "rpc/frame.h"
#include "serve/snapshot.h"
#include "store/wal.h"

namespace kg::cluster {
namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Reads one frame off the stream, feeding the persistent decoder.
/// Sets *timed_out when the deadline expired with no complete frame.
Result<rpc::Frame> ReadFrame(rpc::ITransport* transport,
                             rpc::FrameDecoder* decoder, int timeout_ms,
                             bool* timed_out) {
  *timed_out = false;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::string chunk;
  for (;;) {
    rpc::Frame frame;
    const rpc::FrameDecoder::Step step = decoder->Next(&frame);
    if (step == rpc::FrameDecoder::Step::kFrame) return frame;
    if (step == rpc::FrameDecoder::Step::kError) {
      return Status::Unavailable("wal stream corrupted: " +
                                 decoder->error().message());
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      *timed_out = true;
      return Status::Unavailable("wal stream silent past deadline");
    }
    chunk.clear();
    auto read = transport->Read(&chunk, 64 * 1024,
                                static_cast<int>(left.count()));
    if (!read.ok()) return read.status();
    decoder->Feed(chunk);
  }
}

}  // namespace

WalReceiver::WalReceiver(rpc::TransportFactory dial,
                         store::VersionedKgStore* store,
                         uint32_t initial_chain, std::string label,
                         WalReceiverOptions options,
                         std::function<void()> on_progress)
    : dial_(std::move(dial)),
      store_(store),
      label_(std::move(label)),
      options_(options),
      on_progress_(std::move(on_progress)),
      chain_(initial_chain) {
  last_progress_ms_.store(NowMs(), std::memory_order_relaxed);
  if (options_.registry != nullptr) {
    resubscribes_ = &options_.registry->GetCounter("cluster.resubscribes");
    heartbeats_missed_ =
        &options_.registry->GetCounter("cluster.heartbeats.missed");
    batches_rejected_ =
        &options_.registry->GetCounter("cluster.wal.batches.rejected");
    batches_applied_ =
        &options_.registry->GetCounter("cluster.wal.batches.applied");
  }
}

WalReceiver::~WalReceiver() { Stop(); }

void WalReceiver::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (running_.load(std::memory_order_acquire)) return;
  if (thread_.joinable()) thread_.join();  // Reap an exited thread.
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  last_progress_ms_.store(NowMs(), std::memory_order_relaxed);
  thread_ = std::thread([this] { Run(); });
}

void WalReceiver::Stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> tlock(transport_mu_);
    if (live_transport_ != nullptr) live_transport_->Close();
  }
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
}

int64_t WalReceiver::ms_since_progress() const {
  return NowMs() - last_progress_ms_.load(std::memory_order_relaxed);
}

void WalReceiver::Run() {
  size_t dial_failures = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    auto dialed = dial_();
    if (!dialed.ok()) {
      if (++dial_failures >= options_.max_dial_attempts) break;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.dial_retry_ms));
      continue;
    }
    dial_failures = 0;
    std::unique_ptr<rpc::ITransport> transport = std::move(*dialed);
    {
      std::lock_guard<std::mutex> lock(transport_mu_);
      if (stop_.load(std::memory_order_acquire)) break;
      live_transport_ = transport.get();
    }
    sessions_.fetch_add(1, std::memory_order_relaxed);
    RunSession(transport.get());
    {
      std::lock_guard<std::mutex> lock(transport_mu_);
      live_transport_ = nullptr;
    }
    transport->Close();
    if (!stop_.load(std::memory_order_acquire)) {
      if (resubscribes_ != nullptr) resubscribes_->Inc();
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.dial_retry_ms));
    }
  }
  running_.store(false, std::memory_order_release);
}

void WalReceiver::RunSession(rpc::ITransport* transport) {
  rpc::FrameDecoder decoder;
  bool timed_out = false;

  // Handshake: WAL subscribers speak the same front door as query
  // clients, so a schema-incompatible primary refuses us here.
  rpc::HandshakeRequest hs;
  hs.max_schema_version = serve::kSnapshotSchemaVersion;
  std::string frame_bytes;
  rpc::AppendFrame(&frame_bytes, rpc::MessageType::kHandshakeRequest, 1,
                   rpc::EncodeHandshakeRequest(hs));
  if (!transport->Write(frame_bytes).ok()) return;
  auto hs_frame = ReadFrame(transport, &decoder,
                            options_.heartbeat_timeout_ms, &timed_out);
  if (!hs_frame.ok() ||
      hs_frame->type != rpc::MessageType::kHandshakeResponse) {
    return;
  }
  auto hs_resp = rpc::DecodeHandshakeResponse(hs_frame->body);
  if (!hs_resp.ok() || hs_resp->code != StatusCode::kOk) return;

  // Subscribe from the last verified offset. A configured tracer roots
  // one span per session whose id rides the subscribe as trace context,
  // so the primary's ship spans and our apply spans share one tree.
  obs::Span session =
      obs::Tracer::Start(options_.tracer, "wal.session." + label_);
  rpc::TraceContext session_ctx;
  session_ctx.trace_id = session.id();
  session_ctx.parent_span_id = session.id();
  session_ctx.sampled = true;
  rpc::WalSubscribe sub;
  sub.from_offset = store_->applied_watermark();
  frame_bytes.clear();
  rpc::AppendFrame(&frame_bytes, rpc::MessageType::kWalSubscribe, 2,
                   session.active() ? &session_ctx : nullptr,
                   rpc::EncodeWalSubscribe(sub));
  if (!transport->Write(frame_bytes).ok()) return;

  while (!stop_.load(std::memory_order_acquire)) {
    auto frame = ReadFrame(transport, &decoder,
                           options_.heartbeat_timeout_ms, &timed_out);
    if (!frame.ok()) {
      if (timed_out && heartbeats_missed_ != nullptr) {
        heartbeats_missed_->Inc();
      }
      return;
    }
    if (frame->type == rpc::MessageType::kWalHeartbeat) {
      auto hb = rpc::DecodeWalHeartbeat(frame->body);
      if (!hb.ok()) return;
      last_seen_log_end_.store(hb->log_end, std::memory_order_release);
      last_progress_ms_.store(NowMs(), std::memory_order_relaxed);
      if (hb->log_end == store_->applied_watermark() &&
          hb->chain_at_end != chain_) {
        // Our fully-caught-up prefix disagrees with the primary's
        // chain: this session cannot be trusted. Tear down and
        // re-verify from scratch on the next subscribe.
        if (batches_rejected_ != nullptr) batches_rejected_->Inc();
        return;
      }
      continue;
    }
    if (frame->type != rpc::MessageType::kWalBatch) return;
    auto batch = rpc::DecodeWalBatch(frame->body);
    if (!batch.ok()) return;
    if (batch->code != StatusCode::kOk) {
      // The primary refused the subscription (bad offset, no source).
      if (batches_rejected_ != nullptr) batches_rejected_->Inc();
      return;
    }

    // A traced batch carries the primary's ship-span id; the apply span
    // roots under it, so the cross-process tree reads
    // session -> ship -> apply per shipped batch.
    obs::Span apply = obs::Tracer::StartWithParent(
        options_.tracer, frame->has_trace ? frame->trace.parent_span_id : 0,
        "wal.apply");
    if (apply.active()) {
      apply.SetAttr("start_offset", batch->start_offset);
      apply.SetAttr("end_offset", batch->end_offset);
    }

    // Verify before apply: exact continuation, clean replay, chain
    // agreement. A failure means a lost/garbled segment — drop the
    // session and resubscribe from the last verified offset.
    const uint64_t applied = store_->applied_watermark();
    if (batch->start_offset != applied) {
      if (batches_rejected_ != nullptr) batches_rejected_->Inc();
      return;
    }
    const store::WalReplay replay = store::ReplayWalBuffer(batch->frames);
    if (!replay.clean || replay.valid_bytes != batch->frames.size()) {
      if (batches_rejected_ != nullptr) batches_rejected_->Inc();
      return;
    }
    const uint32_t chain_after = ShardLog::FoldChain(chain_, batch->frames);
    if (chain_after != batch->chain_after) {
      if (batches_rejected_ != nullptr) batches_rejected_->Inc();
      return;
    }
    if (!store_->ApplyBatch(replay.mutations).ok()) {
      if (batches_rejected_ != nullptr) batches_rejected_->Inc();
      return;
    }
    store_->set_applied_watermark(batch->end_offset);
    chain_ = chain_after;
    last_seen_log_end_.store(std::max(batch->log_end, batch->end_offset),
                             std::memory_order_release);
    last_progress_ms_.store(NowMs(), std::memory_order_relaxed);
    if (batches_applied_ != nullptr) batches_applied_->Inc();
    if (on_progress_) on_progress_();
  }
}

}  // namespace kg::cluster
