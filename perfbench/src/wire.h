// The benchmark's side of the gepc_serve socket protocol (GFRM, see
// docs/network-protocol.md) and the server process it drives. Framing is
// written here from the protocol description rather than taken from
// src/net, so a change to the server's frame code is measured on the
// server side only.
#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "json.h"

namespace perfbench {

/// One blocking loopback connection speaking GFRM in a closed loop: each
/// Request sends one frame and waits for its reply.
class WireClient {
 public:
  WireClient() = default;
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Connects to 127.0.0.1:port and completes the Hello/Welcome handshake.
  bool Connect(int port, std::string* error);
  /// Sends one JSONL command and returns the Response payload. A Status
  /// frame (transport-level refusal) or a broken connection returns false.
  bool Request(const std::string& line, std::string* reply);
  void Close();

 private:
  bool SendFrame(uint8_t type, const std::string& payload);
  bool RecvFrame(uint8_t* type, std::string* payload);
  bool ReadExact(char* out, size_t n);

  int fd_ = -1;
  std::string inbuf_;
  size_t inpos_ = 0;
};

/// gepc_serve running as a child process. Its stdout carries the ready line
/// and the shutdown line; its stderr goes to a log file.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts `argv` and waits for the ready line (at most timeout_s).
  bool Start(const std::vector<std::string>& argv, const std::string& log_path,
             double timeout_s, Json* ready, std::string* error);
  /// Waits for the process to exit after an in-band shutdown (at most
  /// timeout_s), killing it past that. Returns true on a clean exit 0.
  bool WaitExit(double timeout_s);
  /// Peak resident set of the running server (VmHWM of its own address
  /// space, which exec started afresh), in bytes; -1 if unknown. The exit
  /// rusage would not do: it also counts the pages the fork shared with the
  /// benchmark before exec.
  int64_t PeakRssBytes() const;
  /// Kills and reaps the process if it is still running.
  void Kill();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string pending_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
