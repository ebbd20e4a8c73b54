#include "serve/protocol.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <sys/socket.h>
#include <unistd.h>

namespace repute::serve {

namespace {

void write_all(int fd, const void* data, std::size_t bytes) {
    const char* p = static_cast<const char*>(data);
    while (bytes > 0) {
        // MSG_NOSIGNAL: a peer that hung up is an EPIPE error for this
        // connection, not a SIGPIPE that kills the whole process.
        const ssize_t n = ::send(fd, p, bytes, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw std::runtime_error(
                std::string("serve: socket write failed: ") +
                std::strerror(errno));
        }
        p += n;
        bytes -= static_cast<std::size_t>(n);
    }
}

/// False on clean EOF before the first byte; throws on EOF mid-buffer.
bool read_all(int fd, void* data, std::size_t bytes) {
    char* p = static_cast<char*>(data);
    std::size_t got = 0;
    while (got < bytes) {
        const ssize_t n = ::read(fd, p + got, bytes - got);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw std::runtime_error(
                std::string("serve: socket read failed: ") +
                std::strerror(errno));
        }
        if (n == 0) {
            if (got == 0) return false;
            throw std::runtime_error("serve: connection closed mid-frame");
        }
        got += static_cast<std::size_t>(n);
    }
    return true;
}

void put_u32(std::string& out, std::uint32_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_blob(std::string& out, const std::string& blob) {
    const auto bytes = static_cast<std::uint64_t>(blob.size());
    out.append(reinterpret_cast<const char*>(&bytes), sizeof(bytes));
    out += blob;
}

struct Cursor {
    const char* p;
    std::size_t left;

    template <typename T>
    T pod() {
        if (left < sizeof(T)) {
            throw std::runtime_error("serve: truncated request payload");
        }
        T v;
        std::memcpy(&v, p, sizeof(T));
        p += sizeof(T);
        left -= sizeof(T);
        return v;
    }
    std::string blob() {
        const auto bytes = pod<std::uint64_t>();
        if (left < bytes) {
            throw std::runtime_error("serve: truncated request payload");
        }
        std::string s(p, bytes);
        p += bytes;
        left -= bytes;
        return s;
    }
};

} // namespace

void write_frame(int fd, FrameType type, const void* payload,
                 std::size_t bytes) {
    if (bytes > kMaxFrameBytes) {
        throw std::runtime_error("serve: frame payload too large");
    }
    char header[5];
    const auto len = static_cast<std::uint32_t>(bytes);
    std::memcpy(header, &len, sizeof(len));
    header[4] = static_cast<char>(type);
    write_all(fd, header, sizeof(header));
    if (bytes > 0) write_all(fd, payload, bytes);
}

Frame read_frame(int fd) {
    char header[5];
    if (!read_all(fd, header, sizeof(header))) {
        throw std::runtime_error(
            "serve: connection closed before a frame arrived");
    }
    std::uint32_t len = 0;
    std::memcpy(&len, header, sizeof(len));
    if (len > kMaxFrameBytes) {
        throw std::runtime_error("serve: oversized frame rejected");
    }
    const auto type = static_cast<std::uint8_t>(header[4]);
    if (type < static_cast<std::uint8_t>(FrameType::Request) ||
        type > static_cast<std::uint8_t>(FrameType::Error)) {
        throw std::runtime_error("serve: unknown frame type");
    }
    Frame frame;
    frame.type = static_cast<FrameType>(type);
    frame.payload.resize(len);
    if (len > 0 && !read_all(fd, frame.payload.data(), len)) {
        throw std::runtime_error("serve: connection closed mid-frame");
    }
    return frame;
}

std::string encode_request(const WireRequest& request) {
    std::string out;
    out.reserve(64 + request.tenant.size() + request.reads.size() +
                request.reads2.size());
    put_u32(out, request.delta);
    out.push_back(static_cast<char>(request.cigar));
    out.push_back(static_cast<char>(request.fail_on_malformed));
    put_u32(out, request.map_workers);
    put_u32(out, request.batch_size);
    put_u32(out, request.queue_depth);
    put_u32(out, request.read_length);
    put_u32(out, request.min_insert);
    put_u32(out, request.max_insert);
    put_blob(out, request.tenant);
    put_blob(out, request.reads);
    put_blob(out, request.reads2);
    // Trailing extension fields follow the blobs; old decoders that
    // stop here reject the extra bytes loudly, new decoders default
    // them when absent.
    put_u32(out, request.length_grid);
    return out;
}

WireRequest decode_request(const std::string& payload) {
    Cursor in{payload.data(), payload.size()};
    WireRequest request;
    request.delta = in.pod<std::uint32_t>();
    request.cigar = in.pod<std::uint8_t>();
    request.fail_on_malformed = in.pod<std::uint8_t>();
    request.map_workers = in.pod<std::uint32_t>();
    request.batch_size = in.pod<std::uint32_t>();
    request.queue_depth = in.pod<std::uint32_t>();
    request.read_length = in.pod<std::uint32_t>();
    request.min_insert = in.pod<std::uint32_t>();
    request.max_insert = in.pod<std::uint32_t>();
    request.tenant = in.blob();
    request.reads = in.blob();
    request.reads2 = in.blob();
    if (in.left >= sizeof(std::uint32_t)) {
        request.length_grid = in.pod<std::uint32_t>();
    }
    if (in.left != 0) {
        throw std::runtime_error(
            "serve: trailing bytes after request payload");
    }
    return request;
}

} // namespace repute::serve
