// Blocking RESP2 client connection for the load generator: one command in
// flight (pipeline depth 1) or an explicit batch for preloading.

#ifndef PERFBENCH_SRC_RESP_CONN_H_
#define PERFBENCH_SRC_RESP_CONN_H_

#include <cstddef>
#include <string>
#include <string_view>

namespace perfbench {

struct Reply {
  char type = 0;      // '+', '-', ':', '$' (bulk), 0 = nil bulk
  std::string text;   // payload (bulk contents, status or error line)
};

class RespConn {
 public:
  RespConn() = default;
  ~RespConn();
  RespConn(const RespConn&) = delete;
  RespConn& operator=(const RespConn&) = delete;

  bool Connect(int port);
  // Appends one command to the send buffer.
  void Add(std::string_view a);
  void Add(std::string_view a, std::string_view b);
  void Add(std::string_view a, std::string_view b, std::string_view c);
  // Writes the send buffer. False on a broken connection.
  bool Flush();
  // Reads one reply. False on a broken connection or a malformed reply.
  bool Read(Reply* reply);
  int fd() const { return fd_; }

 private:
  bool Fill();
  bool ReadLineInto(std::string* line);

  int fd_ = -1;
  std::string out_;
  std::string in_;
  size_t pos_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_RESP_CONN_H_
