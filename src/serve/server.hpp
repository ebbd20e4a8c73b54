#pragma once
// The mapping daemon: a MappingSession behind a Unix-domain socket.
//
// Thread shape:
//
//   accept loop ---BoundedQueue<fd>---> handler pool --> MappingSession
//
// One thread accepts connections and pushes the fds into a bounded
// queue — the admission-control valve: when every handler is busy and
// the queue is full, accept stalls and the kernel's listen backlog (and
// then connecting clients) absorb the pressure, so server memory stays
// O(handlers x queue_depth x batch_size) no matter how many clients
// arrive. Handler threads pop fds, read the single request frame,
// stream the request through the shared session (fair-share mapper
// scheduling happens inside MappingSession::acquire) and frame SAM
// bytes back as they are produced — a request's output starts flowing
// while its later batches still map.
//
// Shutdown: stop() (async-signal-safe, callable from a SIGTERM/SIGINT
// handler) writes one byte to a self-pipe; the accept loop's poll()
// wakes, the listen socket closes, the admission queue closes, and
// run() joins the handlers — every in-flight request finishes and
// flushes its Done frame before run() returns. Nothing is aborted
// mid-request.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include <sys/types.h>

#include "pipeline/mapping_api.hpp"

namespace repute::serve {

struct ServerConfig {
    std::string socket_path;
    /// Concurrent request handlers (and the admission-queue capacity is
    /// `pending` beyond those).
    std::size_t handlers = 2;
    std::size_t pending = 8;
};

class Server {
public:
    /// Binds and listens on `config.socket_path`. A stale socket file
    /// (no listener behind it) is reclaimed; a live daemon on the path
    /// throws std::runtime_error("serve: daemon already listening on
    /// PATH"), and so does a non-socket file there or a bind failure.
    /// The session is shared by every handler and must outlive the
    /// server. The destructor unlinks the path only while it still
    /// names the socket this server bound.
    Server(pipeline::MappingSession& session, ServerConfig config);
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Serves until stop(). Returns the number of requests handled.
    std::size_t run();

    /// Requests shutdown; async-signal-safe (one write() to a pipe).
    /// run() drains in-flight requests before returning.
    void stop() noexcept;

    const std::string& socket_path() const noexcept {
        return config_.socket_path;
    }

private:
    void handle_connection(int fd);

    pipeline::MappingSession* session_;
    ServerConfig config_;
    int listen_fd_ = -1;
    dev_t socket_dev_ = 0; ///< identity of the bound socket file
    ino_t socket_ino_ = 0;
    int wake_read_fd_ = -1;
    int wake_write_fd_ = -1;
    std::atomic<std::size_t> handled_{0};
};

} // namespace repute::serve
