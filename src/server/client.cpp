#include "server/client.hpp"

#include <poll.h>

#include <chrono>

#include "common/error.hpp"

namespace topil::server {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ServiceClient::ServiceClient(std::unique_ptr<ByteStream> stream)
    : stream_(std::move(stream)), buf_(16 * 1024) {
  TOPIL_REQUIRE(stream_ != nullptr, "client needs a stream");
}

void ServiceClient::register_device(std::uint64_t device_id,
                                    const std::string& scenario_text) {
  stream_->write(encode_frame(MsgType::kRegister,
                              encode(RegisterMsg{device_id, scenario_text})));
}

void ServiceClient::deregister_device(std::uint64_t device_id) {
  stream_->write(
      encode_frame(MsgType::kDeregister, encode(DeregisterMsg{device_id})));
}

void ServiceClient::request_stats() {
  stream_->write(
      encode_frame(MsgType::kStatsRequest, encode(StatsRequestMsg{})));
}

std::size_t ServiceClient::poll(std::vector<ClientEvent>& out) {
  std::size_t appended = 0;
  for (;;) {
    const std::size_t n = stream_->read_some(buf_.data(), buf_.size());
    if (n == 0) break;
    reader_.feed(buf_.data(), n);
    const std::uint64_t now_ns = steady_now_ns();
    while (auto frame = reader_.next()) {
      ClientEvent ev;
      ev.type = frame->type;
      ev.recv_ns = now_ns;
      switch (frame->type) {
        case MsgType::kRegisterAck:
          ev.ack = decode<RegisterAckMsg>(frame->payload);
          break;
        case MsgType::kAction:
          ev.action = decode<ActionMsg>(frame->payload);
          break;
        case MsgType::kRetire:
          ev.retire = decode<RetireMsg>(frame->payload);
          break;
        case MsgType::kStatsReply:
          ev.stats = decode<StatsReplyMsg>(frame->payload);
          break;
        case MsgType::kError:
          ev.error = decode<ErrorMsg>(frame->payload);
          break;
        default:
          throw InvalidArgument("unexpected server frame type " +
                                std::to_string(
                                    static_cast<unsigned>(frame->type)));
      }
      out.push_back(std::move(ev));
      ++appended;
    }
  }
  return appended;
}

std::size_t ServiceClient::poll_wait(std::vector<ClientEvent>& out,
                                     int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const std::size_t n = poll(out);
    if (n > 0) return n;
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (closed() || left.count() <= 0) return 0;
    ::pollfd pfd{stream_->fd(), POLLIN, 0};
    ::poll(&pfd, 1, static_cast<int>(left.count()));
  }
}

bool ServiceClient::closed() { return stream_->closed(); }

}  // namespace topil::server
