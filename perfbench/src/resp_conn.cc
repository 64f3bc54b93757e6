#include "perfbench/src/resp_conn.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>

#include "perfbench/src/util.h"

namespace perfbench {

namespace {

void AppendBulk(std::string* out, std::string_view s) {
  *out += '$';
  *out += std::to_string(s.size());
  *out += "\r\n";
  out->append(s.data(), s.size());
  *out += "\r\n";
}

}  // namespace

RespConn::~RespConn() {
  if (fd_ >= 0) ::close(fd_);
}

bool RespConn::Connect(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // A reply that never comes fails the run instead of hanging it.
  timeval tv{20, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return true;
}

void RespConn::Add(std::string_view a) {
  out_ += "*1\r\n";
  AppendBulk(&out_, a);
}

void RespConn::Add(std::string_view a, std::string_view b) {
  out_ += "*2\r\n";
  AppendBulk(&out_, a);
  AppendBulk(&out_, b);
}

void RespConn::Add(std::string_view a, std::string_view b,
                   std::string_view c) {
  out_ += "*3\r\n";
  AppendBulk(&out_, a);
  AppendBulk(&out_, b);
  AppendBulk(&out_, c);
}

bool RespConn::Flush() {
  const bool ok = WriteAll(fd_, out_);
  out_.clear();
  return ok;
}

bool RespConn::Fill() {
  if (pos_ == in_.size()) {
    in_.clear();
    pos_ = 0;
  } else if (pos_ > 65536) {
    in_.erase(0, pos_);
    pos_ = 0;
  }
  char buf[16384];
  for (;;) {
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    in_.append(buf, static_cast<size_t>(n));
    return true;
  }
}

bool RespConn::ReadLineInto(std::string* line) {
  for (;;) {
    const size_t eol = in_.find("\r\n", pos_);
    if (eol != std::string::npos) {
      line->assign(in_, pos_, eol - pos_);
      pos_ = eol + 2;
      return true;
    }
    if (!Fill()) return false;
  }
}

bool RespConn::Read(Reply* reply) {
  std::string line;
  if (!ReadLineInto(&line) || line.empty()) return false;
  reply->type = line[0];
  if (line[0] != '$') {
    reply->text.assign(line, 1, std::string::npos);
    return line[0] == '+' || line[0] == '-' || line[0] == ':';
  }
  const long len = std::strtol(line.c_str() + 1, nullptr, 10);
  if (len < 0) {
    reply->type = 0;
    reply->text.clear();
    return true;
  }
  const size_t need = static_cast<size_t>(len) + 2;
  while (in_.size() - pos_ < need) {
    if (!Fill()) return false;
  }
  reply->text.assign(in_, pos_, static_cast<size_t>(len));
  pos_ += need;
  return true;
}

}  // namespace perfbench
