#include "wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <thread>

namespace perfbench {

namespace {

constexpr uint8_t kHello = 1;
constexpr uint8_t kWelcome = 2;
constexpr uint8_t kRequest = 3;
constexpr uint8_t kResponse = 4;
constexpr size_t kHeaderBytes = 12;
constexpr uint32_t kMaxPayload = 16u * 1024 * 1024;

// The server seeds FNV-1a-64 with 1469598103934665603, a digit short of
// the standard offset basis 14695981039346656037 that
// docs/network-protocol.md implies; a client must match the server.
uint16_t Checksum(const std::string& payload) {
  uint64_t hash = 1469598103934665603ULL;
  for (unsigned char c : payload) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return static_cast<uint16_t>(hash & 0xffff);
}

double Seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

WireClient::~WireClient() { Close(); }

void WireClient::Close() {
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
}

bool WireClient::Connect(int port, std::string* error) {
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *error = std::string("connect: ") + std::strerror(errno);
    Close();
    return false;
  }
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  uint8_t type = 0;
  std::string payload;
  if (!SendFrame(kHello, "{}") || !RecvFrame(&type, &payload) ||
      type != kWelcome) {
    *error = "handshake failed";
    Close();
    return false;
  }
  return true;
}

bool WireClient::Request(const std::string& line, std::string* reply) {
  uint8_t type = 0;
  if (!SendFrame(kRequest, line) || !RecvFrame(&type, reply)) return false;
  return type == kResponse;
}

bool WireClient::SendFrame(uint8_t type, const std::string& payload) {
  std::string bytes(kHeaderBytes, '\0');
  bytes[0] = 0x47;  // magic 0x4647, little-endian
  bytes[1] = 0x46;
  bytes[2] = 1;     // frame version
  bytes[3] = static_cast<char>(type);
  const uint16_t sum = Checksum(payload);
  bytes[6] = static_cast<char>(sum & 0xff);
  bytes[7] = static_cast<char>(sum >> 8);
  const uint32_t size = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    bytes[8 + i] = static_cast<char>((size >> (8 * i)) & 0xff);
  }
  bytes += payload;
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = write(fd_, bytes.data() + off, bytes.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

bool WireClient::ReadExact(char* out, size_t n) {
  while (inbuf_.size() - inpos_ < n) {
    if (inpos_ > 0) {
      inbuf_.erase(0, inpos_);
      inpos_ = 0;
    }
    char chunk[65536];
    const ssize_t got = read(fd_, chunk, sizeof(chunk));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    inbuf_.append(chunk, static_cast<size_t>(got));
  }
  std::memcpy(out, inbuf_.data() + inpos_, n);
  inpos_ += n;
  return true;
}

bool WireClient::RecvFrame(uint8_t* type, std::string* payload) {
  unsigned char header[kHeaderBytes];
  if (fd_ < 0 || !ReadExact(reinterpret_cast<char*>(header), kHeaderBytes)) {
    return false;
  }
  if (header[0] != 0x47 || header[1] != 0x46 || header[2] != 1 ||
      (header[4] & ~1u) != 0 || header[5] != 0) {
    return false;
  }
  if (header[4] != 0) return false;  // compressed replies are not requested
  uint32_t size = 0;
  for (int i = 0; i < 4; ++i) size |= static_cast<uint32_t>(header[8 + i]) << (8 * i);
  if (size > kMaxPayload) return false;
  payload->assign(size, '\0');
  if (size > 0 && !ReadExact(payload->data(), size)) return false;
  const uint16_t sum = static_cast<uint16_t>(header[6] | (header[7] << 8));
  if (sum != Checksum(*payload)) return false;
  *type = header[3];
  return true;
}

ServerProcess::~ServerProcess() { Kill(); }

bool ServerProcess::Start(const std::vector<std::string>& argv,
                          const std::string& log_path, double timeout_s,
                          Json* ready, std::string* error) {
  int out_pipe[2];
  if (pipe(out_pipe) != 0) {
    *error = "pipe failed";
    return false;
  }
  pid_ = fork();
  if (pid_ < 0) {
    *error = "fork failed";
    close(out_pipe[0]);
    close(out_pipe[1]);
    return false;
  }
  if (pid_ == 0) {
    // The server must not outlive the benchmark, even when it is killed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    dup2(out_pipe[1], STDOUT_FILENO);
    const int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) dup2(log, STDERR_FILENO);
    close(out_pipe[0]);
    close(STDIN_FILENO);  // --listen never reads stdin
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    execv(args[0], args.data());
    _exit(127);
  }
  close(out_pipe[1]);
  out_fd_ = out_pipe[0];
  const double deadline = Seconds() + timeout_s;
  while (true) {
    const size_t newline = pending_.find('\n');
    if (newline != std::string::npos) {
      const std::string line = pending_.substr(0, newline);
      pending_.erase(0, newline + 1);
      if (Json::Parse(line, ready) && ready->Bool("ready")) return true;
      continue;
    }
    const double left = deadline - Seconds();
    if (left <= 0) {
      *error = "server not ready within the time limit";
      return false;
    }
    pollfd pfd{out_fd_, POLLIN, 0};
    const int rc = poll(&pfd, 1, static_cast<int>(left * 1000) + 1);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) continue;
    char chunk[4096];
    const ssize_t got = read(out_fd_, chunk, sizeof(chunk));
    if (got <= 0) {
      *error = "server exited before its ready line (see " + log_path + ")";
      return false;
    }
    pending_.append(chunk, static_cast<size_t>(got));
  }
}

int64_t ServerProcess::PeakRssBytes() const {
  if (pid_ <= 0) return -1;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      int64_t kb = 0;
      status >> kb;
      return kb * 1024;
    }
  }
  return -1;
}

bool ServerProcess::WaitExit(double timeout_s) {
  if (pid_ <= 0) return false;
  const double deadline = Seconds() + timeout_s;
  while (Seconds() < deadline) {
    int status = 0;
    const pid_t done = waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      pid_ = -1;
      if (out_fd_ >= 0) close(out_fd_);
      out_fd_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Kill();
  return false;
}

void ServerProcess::Kill() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  if (out_fd_ >= 0) close(out_fd_);
  out_fd_ = -1;
}

}  // namespace perfbench
