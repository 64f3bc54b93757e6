// Message transport abstraction.
//
// A MessageChannel moves whole Messages between one process's SMA-side
// client and the daemon. Two implementations:
//  * LocalChannel     — in-process queue pair (tests, SimMachine daemons),
//  * UnixSocketChannel — SOCK_SEQPACKET Unix domain socket (real deployment).
//
// One receiver at a time: Recv may reuse per-channel receive state, so at
// most one thread may be inside Recv on a given endpoint. On the client
// that is the holder of DaemonClient::io_mu_; on the daemon, the session's
// reader thread. Send, WaitReadable and Close may be called from any thread
// concurrently with that receiver.

#ifndef SOFTMEM_SRC_IPC_CHANNEL_H_
#define SOFTMEM_SRC_IPC_CHANNEL_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "src/common/status.h"
#include "src/ipc/messages.h"

namespace softmem {

class MessageChannel {
 public:
  virtual ~MessageChannel() = default;

  // Sends one message. Fails with kUnavailable if the peer is gone.
  virtual Status Send(const Message& m) = 0;

  // Receives one message, waiting up to `timeout_ms` (-1 = forever, 0 = poll).
  // kUnavailable: channel closed. kNotFound: timed out with no message.
  virtual Result<Message> Recv(int timeout_ms) = 0;

  // Waits up to `timeout_ms` (-1 = forever) until a Recv(0) would not time
  // out: a message is pending or the channel is closed. Consumes nothing.
  // Ok: readable. kNotFound: timed out. Another thread may consume the
  // message first, so a following Recv(0) can still return kNotFound.
  virtual Status WaitReadable(int timeout_ms) = 0;

  // Closes this endpoint; pending and future Recv calls on the peer fail
  // with kUnavailable once the queue drains.
  virtual void Close() = 0;
};

// Creates a connected in-process channel pair (a <-> b).
std::pair<std::unique_ptr<MessageChannel>, std::unique_ptr<MessageChannel>>
CreateLocalChannelPair();

}  // namespace softmem

#endif  // SOFTMEM_SRC_IPC_CHANNEL_H_
