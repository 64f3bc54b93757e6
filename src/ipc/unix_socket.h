// Unix-domain-socket transport (SOCK_SEQPACKET: connection-oriented with
// preserved message boundaries, so one datagram = one Message).

#ifndef SOFTMEM_SRC_IPC_UNIX_SOCKET_H_
#define SOFTMEM_SRC_IPC_UNIX_SOCKET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/ipc/channel.h"

namespace softmem {

// Channel over a connected SEQPACKET socket fd. Takes ownership of the fd.
class UnixSocketChannel : public MessageChannel {
 public:
  explicit UnixSocketChannel(int fd) : fd_(fd) {}
  ~UnixSocketChannel() override;

  UnixSocketChannel(const UnixSocketChannel&) = delete;
  UnixSocketChannel& operator=(const UnixSocketChannel&) = delete;

  Status Send(const Message& m) override;
  Result<Message> Recv(int timeout_ms) override;
  Status WaitReadable(int timeout_ms) override;
  void Close() override;

  int fd() const { return fd_; }

 private:
  int fd_;
  // Receive buffer of one maximal datagram, owned by the single receiver
  // (channel.h).
  std::unique_ptr<uint8_t[]> recv_buf_;
};

// Listening socket bound to a filesystem path. Accept() yields one channel
// per connecting client.
class UnixSocketListener {
 public:
  ~UnixSocketListener();

  UnixSocketListener(const UnixSocketListener&) = delete;
  UnixSocketListener& operator=(const UnixSocketListener&) = delete;

  // Binds and listens on `path` (unlinking any stale socket file first).
  static Result<std::unique_ptr<UnixSocketListener>> Bind(
      const std::string& path);

  // Waits up to `timeout_ms` for a client (-1 = forever). kNotFound on
  // timeout, kUnavailable once Shutdown() was called.
  Result<std::unique_ptr<MessageChannel>> Accept(int timeout_ms);

  // Unblocks pending Accept() calls and closes the listener.
  void Shutdown();

  const std::string& path() const { return path_; }

 private:
  UnixSocketListener(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  const int fd_;  // never mutated: Shutdown() flips stopped_ instead
  std::string path_;
  std::atomic<bool> stopped_{false};
};

// Connects to a daemon listening at `path`.
Result<std::unique_ptr<MessageChannel>> ConnectUnixSocket(
    const std::string& path);

}  // namespace softmem

#endif  // SOFTMEM_SRC_IPC_UNIX_SOCKET_H_
