// The mapping daemon end to end over a real Unix-domain socket:
// concurrent clients against one resident session, single-end and
// paired requests interleaved, per-client output byte-identical to the
// same request mapped one-shot, a clean drain on stop(), and socket
// ownership: a live daemon is never taken over, a stale socket is
// reclaimed, and a dying daemon never deletes its successor's socket.

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "genomics/fastx.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/multi_reference.hpp"
#include "genomics/pair_sim.hpp"
#include "genomics/read_sim.hpp"
#include "pipeline/mapping_api.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace repute {
namespace {

std::string fastq_text(const genomics::ReadBatch& batch) {
    std::string out;
    for (const auto& read : batch.reads) {
        out += '@' + read.name + '\n' + read.to_string() + "\n+\n";
        out += read.quality.empty() ? std::string(read.length(), 'I')
                                    : read.quality;
        out += '\n';
    }
    return out;
}

/// One shared daemon fixture: a small genome, a 2-mapper session, a
/// server on a per-test TempDir socket, and ground-truth SAM for each
/// request shape produced through the same session one-shot.
class ServeTest : public ::testing::Test {
protected:
    void SetUp() override {
        genomics::GenomeSimConfig gconfig;
        gconfig.length = 30'000;
        gconfig.seed = 17;
        genomics::Reference genome = genomics::simulate_genome(gconfig);

        genomics::ReadSimConfig rconfig;
        rconfig.n_reads = 200;
        rconfig.read_length = 60;
        rconfig.max_errors = 3;
        rconfig.seed = 500;
        single_fastq_ = fastq_text(
            genomics::simulate_reads(genome, rconfig).batch);

        genomics::PairSimConfig pconfig;
        pconfig.n_pairs = 80;
        pconfig.read_length = 60;
        pconfig.max_errors = 2;
        pconfig.insert_mean = 240.0;
        pconfig.insert_stddev = 20.0;
        pconfig.seed = 900;
        const auto pairs = genomics::simulate_pairs(genome, pconfig);
        paired_fastq1_ = fastq_text(pairs.first);
        paired_fastq2_ = fastq_text(pairs.second);

        pipeline::SessionConfig sconfig;
        sconfig.mapper_pool = 2;
        session_ = pipeline::MappingSession::from_multi(
            genomics::MultiReference(std::move(genome)), sconfig);

        server_config_.socket_path = socket_path("");
        server_config_.handlers = 2;
        server_ = std::make_unique<serve::Server>(*session_,
                                                  server_config_);
        server_thread_ = std::thread([this] { served_ = server_->run(); });
    }

    /// A socket path private to this test case and process, so cases
    /// running in parallel (ctest -j) never share a socket.
    static std::string socket_path(const std::string& suffix) {
        const auto* info =
            testing::UnitTest::GetInstance()->current_test_info();
        return testing::TempDir() + "repute_serve." + info->name() + "." +
               std::to_string(::getpid()) + suffix + ".sock";
    }

    void TearDown() override {
        if (server_thread_.joinable()) {
            server_->stop();
            server_thread_.join();
        }
    }

    serve::WireRequest single_request(const std::string& tenant) const {
        serve::WireRequest request;
        request.delta = 3;
        request.tenant = tenant;
        request.reads = single_fastq_;
        return request;
    }

    serve::WireRequest paired_request(const std::string& tenant) const {
        serve::WireRequest request = single_request(tenant);
        request.reads = paired_fastq1_;
        request.reads2 = paired_fastq2_;
        request.read_length = 60;
        request.min_insert = 120;
        request.max_insert = 400;
        return request;
    }

    /// The same request mapped one-shot through the session (the wire
    /// decode path is exercised by running it through the server once).
    std::string one_shot(const serve::WireRequest& wire) {
        std::istringstream reads(wire.reads);
        std::istringstream reads2(wire.reads2);
        pipeline::MapRequest request;
        request.reads = &reads;
        request.delta = wire.delta;
        if (!wire.reads2.empty()) {
            request.reads2 = &reads2;
            request.reader.read_length = wire.read_length;
            request.pair.min_insert = wire.min_insert;
            request.pair.max_insert = wire.max_insert;
        }
        std::ostringstream sam;
        session_->map(request, sam);
        return sam.str();
    }

    std::string via_socket(const serve::WireRequest& wire) {
        std::ostringstream sam;
        serve::run_client(server_->socket_path(), wire, sam);
        return sam.str();
    }

    std::unique_ptr<pipeline::MappingSession> session_;
    serve::ServerConfig server_config_;
    std::unique_ptr<serve::Server> server_;
    std::thread server_thread_;
    std::size_t served_ = 0;
    std::string single_fastq_, paired_fastq1_, paired_fastq2_;
};

TEST_F(ServeTest, SingleRequestMatchesOneShot) {
    const auto wire = single_request("solo");
    EXPECT_EQ(via_socket(wire), one_shot(wire));
}

TEST_F(ServeTest, ConcurrentClientsEachGetIdenticalOutput) {
    const auto single = single_request("fleet");
    const auto paired = paired_request("fleet");
    const std::string want_single = one_shot(single);
    const std::string want_paired = one_shot(paired);

    // More clients than handlers: the admission queue has to hold the
    // overflow, and interleaved single/paired requests must not bleed
    // into each other's streams.
    constexpr std::size_t kClients = 6;
    std::vector<std::string> got(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
        clients.emplace_back([&, i] {
            got[i] = via_socket(i % 2 == 0 ? single : paired);
        });
    }
    for (auto& t : clients) t.join();

    for (std::size_t i = 0; i < kClients; ++i) {
        EXPECT_EQ(got[i], i % 2 == 0 ? want_single : want_paired)
            << "client " << i << " diverged";
    }
}

TEST_F(ServeTest, DoneFrameCarriesSummary) {
    std::ostringstream sam;
    const auto result = serve::run_client(server_->socket_path(),
                                          single_request("sum"), sam);
    EXPECT_NE(result.summary.find("reads_in="), std::string::npos);
    EXPECT_NE(result.summary.find("records="), std::string::npos);
}

TEST_F(ServeTest, MalformedRequestGetsErrorFrameAndServerSurvives) {
    serve::WireRequest bad = single_request("bad");
    bad.reads = "@only_name_no_sequence\n";
    bad.fail_on_malformed = 1;
    std::ostringstream sam;
    EXPECT_THROW(serve::run_client(server_->socket_path(), bad, sam),
                 std::runtime_error);

    // The handler must still be alive for the next request.
    const auto wire = single_request("after");
    EXPECT_EQ(via_socket(wire), one_shot(wire));
}

TEST_F(ServeTest, StopDrainsAndReportsServedCount) {
    const auto wire = single_request("drain");
    via_socket(wire);
    via_socket(wire);
    server_->stop();
    server_thread_.join();
    EXPECT_EQ(served_, 2u);
}

/// Leaves a socket file at `path` with nothing listening behind it —
/// what a crashed daemon leaves.
void make_stale_socket(const std::string& path) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    ::close(fd); // bound but never listened on: connect() is refused
}

bool is_socket(const std::string& path) {
    struct stat st {};
    return ::lstat(path.c_str(), &st) == 0 && S_ISSOCK(st.st_mode);
}

/// A server plus its run() thread, stopped and joined on every exit
/// path (a throwing client must not leave a joinable thread behind).
struct RunningServer {
    serve::Server server;
    std::thread thread;

    RunningServer(pipeline::MappingSession& session,
                  const serve::ServerConfig& config)
        : server(session, config), thread([this] { server.run(); }) {}
    ~RunningServer() {
        server.stop();
        thread.join();
    }
};

TEST_F(ServeTest, SecondServerOnLivePathThrows) {
    try {
        serve::Server intruder(*session_, server_config_);
        FAIL() << "second server took over a live socket";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("already listening"),
                  std::string::npos)
            << e.what();
    }
    // The incumbent still owns the path and still serves.
    const auto wire = single_request("incumbent");
    EXPECT_EQ(via_socket(wire), one_shot(wire));
}

TEST_F(ServeTest, StaleSocketFileIsReclaimed) {
    serve::ServerConfig config = server_config_;
    config.socket_path = socket_path(".stale");
    make_stale_socket(config.socket_path);
    ASSERT_TRUE(is_socket(config.socket_path));

    const RunningServer running(*session_, config);
    const auto wire = single_request("reclaimed");
    std::ostringstream sam;
    serve::run_client(config.socket_path, wire, sam);
    EXPECT_EQ(sam.str(), one_shot(wire));
}

TEST_F(ServeTest, NonSocketFileIsNeverReplaced) {
    serve::ServerConfig config = server_config_;
    config.socket_path = socket_path(".file");
    { std::ofstream(config.socket_path) << "precious"; }
    try {
        serve::Server server(*session_, config);
        FAIL() << "server replaced a regular file";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("not a socket"),
                  std::string::npos)
            << e.what();
    }
    std::ifstream in(config.socket_path);
    std::string content;
    in >> content;
    EXPECT_EQ(content, "precious");
    ::unlink(config.socket_path.c_str());
}

TEST_F(ServeTest, DyingDaemonLeavesSuccessorSocketInPlace) {
    // The incumbent's socket file is removed out from under it (an
    // operator cleaning up a wedged daemon) and a successor binds the
    // same path; when the old daemon finally exits it must not unlink
    // the successor's socket.
    ASSERT_EQ(::unlink(server_config_.socket_path.c_str()), 0);
    {
        const RunningServer successor(*session_, server_config_);

        server_->stop();
        server_thread_.join();
        server_.reset(); // the old daemon's destructor runs here

        EXPECT_TRUE(is_socket(server_config_.socket_path));
        const auto wire = single_request("successor");
        std::ostringstream sam;
        serve::run_client(server_config_.socket_path, wire, sam);
        EXPECT_EQ(sam.str(), one_shot(wire));
    }
    // The successor does clean up its own socket on exit.
    EXPECT_FALSE(is_socket(server_config_.socket_path));
}

} // namespace
} // namespace repute
