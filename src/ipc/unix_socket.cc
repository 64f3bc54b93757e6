#include "src/ipc/unix_socket.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <vector>

#include "src/telemetry/metrics.h"
#include "src/testing/failpoint.h"

namespace softmem {

namespace {

// IPC series live in the process-wide registry: every channel shares them.
// Fetched once — registration is lock-free but not worth repeating per op.
telemetry::Counter* EintrRecoveries(const char* op) {
  return telemetry::MetricsRegistry::Global().GetCounter(
      "softmem_ipc_eintr_recoveries_total",
      "Syscalls retried after an EINTR interruption.", {{"op", op}});
}

telemetry::Counter* MessagesSent() {
  static telemetry::Counter* c = telemetry::MetricsRegistry::Global().GetCounter(
      "softmem_ipc_messages_sent_total", "Datagrams sent over IPC channels.");
  return c;
}

telemetry::Counter* MessagesReceived() {
  static telemetry::Counter* c = telemetry::MetricsRegistry::Global().GetCounter(
      "softmem_ipc_messages_received_total",
      "Datagrams received over IPC channels.");
  return c;
}

telemetry::Counter* RecvTimeouts() {
  static telemetry::Counter* c = telemetry::MetricsRegistry::Global().GetCounter(
      "softmem_ipc_recv_timeouts_total",
      "Receives whose positive deadline expired with no message.");
  return c;
}

Status MakeAddr(const std::string& path, sockaddr_un* addr) {
  if (path.size() + 1 > sizeof(addr->sun_path)) {
    return InvalidArgumentError("socket path too long");
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return Status::Ok();
}

// Waits for readability. kNotFound on timeout, kUnavailable on error/hup
// with no pending data. A signal interrupting the poll is not an error:
// re-poll with the remaining time so callers never see a spurious
// kUnavailable from EINTR.
Status PollReadable(int fd, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms < 0 ? 0
                                                                 : timeout_ms);
  for (;;) {
    pollfd p{fd, POLLIN, 0};
    const int n = ::poll(&p, 1, timeout_ms);
    if (n > 0) {
      return Status::Ok();
    }
    if (n == 0) {
      return NotFoundError("recv timeout");
    }
    if (errno != EINTR) {
      return UnavailableError(std::string("poll: ") + std::strerror(errno));
    }
    static telemetry::Counter* eintr = EintrRecoveries("poll");
    eintr->Inc();
    if (timeout_ms >= 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) {
        return NotFoundError("recv timeout");
      }
      timeout_ms = static_cast<int>(left.count());
    }
  }
}

constexpr size_t kMaxDatagram = 64 * 1024;

}  // namespace

UnixSocketChannel::~UnixSocketChannel() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status UnixSocketChannel::Send(const Message& m) {
  if (fd_ < 0) {
    return UnavailableError("channel closed");
  }
  if (SOFTMEM_FAULT_FIRED("ipc.send.drop")) {
    return Status::Ok();  // message silently lost on the wire
  }
  SOFTMEM_INJECT_FAULT("ipc.send.fail");
  const std::vector<uint8_t> bytes = EncodeMessage(m);
  ssize_t n;
  while ((n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL)) < 0 &&
         errno == EINTR) {
    static telemetry::Counter* eintr = EintrRecoveries("send");
    eintr->Inc();
  }
  if (n < 0) {
    return UnavailableError(std::string("send: ") + std::strerror(errno));
  }
  if (static_cast<size_t>(n) != bytes.size()) {
    return InternalError("short send on seqpacket socket");
  }
  MessagesSent()->Inc();
  return Status::Ok();
}

Result<Message> UnixSocketChannel::Recv(int timeout_ms) {
  if (fd_ < 0) {
    return UnavailableError("channel closed");
  }
  // Only a positive deadline that expires is a timeout worth counting: a
  // Recv(0) that finds nothing is a poll, e.g. the DaemonClient poller
  // losing a wake-up race to an RPC thread.
  if (SOFTMEM_FAULT_FIRED("ipc.recv.timeout")) {
    if (timeout_ms > 0) {
      RecvTimeouts()->Inc();
    }
    return NotFoundError("injected fault: ipc.recv.timeout");
  }
  const Status readable = PollReadable(fd_, timeout_ms);
  if (!readable.ok()) {
    if (readable.code() == StatusCode::kNotFound && timeout_ms > 0) {
      RecvTimeouts()->Inc();
    }
    return readable;
  }
  // Allocated on first use, without zero-filling, and reused: the
  // one-receiver rule (channel.h) makes the buffer private to that thread.
  if (recv_buf_ == nullptr) {
    recv_buf_.reset(new uint8_t[kMaxDatagram]);
  }
  ssize_t n;
  while ((n = ::recv(fd_, recv_buf_.get(), kMaxDatagram, 0)) < 0 &&
         errno == EINTR) {
    static telemetry::Counter* eintr = EintrRecoveries("recv");
    eintr->Inc();
  }
  if (n < 0) {
    return UnavailableError(std::string("recv: ") + std::strerror(errno));
  }
  if (n == 0) {
    return UnavailableError("peer closed");
  }
  MessagesReceived()->Inc();
  return DecodeMessage(recv_buf_.get(), static_cast<size_t>(n));
}

Status UnixSocketChannel::WaitReadable(int timeout_ms) {
  if (fd_ < 0) {
    return Status::Ok();  // closed: Recv fails at once
  }
  return PollReadable(fd_, timeout_ms);
}

void UnixSocketChannel::Close() {
  // Shut down but keep the fd alive until destruction: another thread may be
  // blocked in poll()/recv() on it, and closing here would race with kernel
  // fd reuse. shutdown() wakes such threads with EOF.
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

UnixSocketListener::~UnixSocketListener() {
  Shutdown();
  ::close(fd_);
}

Result<std::unique_ptr<UnixSocketListener>> UnixSocketListener::Bind(
    const std::string& path) {
  sockaddr_un addr;
  SOFTMEM_RETURN_IF_ERROR(MakeAddr(path, &addr));
  const int fd = ::socket(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return UnavailableError(std::string("socket: ") + std::strerror(errno));
  }
  ::unlink(path.c_str());  // remove stale socket file
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return UnavailableError(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(fd, 64) < 0) {
    ::close(fd);
    return UnavailableError(std::string("listen: ") + std::strerror(errno));
  }
  return std::unique_ptr<UnixSocketListener>(
      new UnixSocketListener(fd, path));
}

Result<std::unique_ptr<MessageChannel>> UnixSocketListener::Accept(
    int timeout_ms) {
  if (stopped_.load(std::memory_order_acquire)) {
    return UnavailableError("listener shut down");
  }
  SOFTMEM_RETURN_IF_ERROR(PollReadable(fd_, timeout_ms));
  if (stopped_.load(std::memory_order_acquire)) {
    return UnavailableError("listener shut down");
  }
  const int client = ::accept(fd_, nullptr, nullptr);
  if (client < 0) {
    return UnavailableError(std::string("accept: ") + std::strerror(errno));
  }
  return std::unique_ptr<MessageChannel>(
      std::make_unique<UnixSocketChannel>(client));
}

void UnixSocketListener::Shutdown() {
  // Wake pending Accept()s but keep the fd alive until destruction: another
  // thread may be blocked in poll()/accept() on it, and closing here would
  // race with kernel fd reuse (the UnixSocketChannel::Close discipline).
  if (!stopped_.exchange(true, std::memory_order_acq_rel)) {
    ::shutdown(fd_, SHUT_RDWR);
    ::unlink(path_.c_str());
  }
}

Result<std::unique_ptr<MessageChannel>> ConnectUnixSocket(
    const std::string& path) {
  sockaddr_un addr;
  SOFTMEM_RETURN_IF_ERROR(MakeAddr(path, &addr));
  const int fd = ::socket(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return UnavailableError(std::string("socket: ") + std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return UnavailableError(std::string("connect: ") + std::strerror(errno));
  }
  return std::unique_ptr<MessageChannel>(
      std::make_unique<UnixSocketChannel>(fd));
}

}  // namespace softmem
