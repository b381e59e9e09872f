/**
 * @file
 * A fake daemon for the client's epoch-drain bound: a raw-socket
 * relay in front of a real ftd daemon that forwards every message
 * both ways (hello/helloAck, runRequest/runResult, error, goodbye)
 * except the daemon's metricsEpoch frames, and keeps the client's
 * socket open until the client says goodbye. To the client it is a
 * daemon that answers every run request but never closes its
 * batches, so each session must end on kEpochDrainMs.
 */
#ifndef FT_TESTS_EPOCH_WITHHOLDING_RELAY_HPP
#define FT_TESTS_EPOCH_WITHHOLDING_RELAY_HPP

#include <gtest/gtest.h>
#include <poll.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "net/frame.hpp"
#include "net/socket.hpp"

namespace fasttrack {

/** Relays one client session at a time to a daemon on loopback. */
class EpochWithholdingRelay
{
  public:
    explicit EpochWithholdingRelay(std::uint16_t upstream_port)
        : upstreamPort_(upstream_port)
    {
        std::string error;
        EXPECT_TRUE(listener_.open("127.0.0.1", 0, error)) << error;
        thread_ = std::thread([this] { serve(); });
    }
    ~EpochWithholdingRelay()
    {
        // Let the accept/poll timeouts expire rather than closing
        // sockets under the serve thread's feet.
        stop_.store(true);
        if (thread_.joinable())
            thread_.join();
        listener_.close();
    }
    std::uint16_t port() { return listener_.boundPort(); }
    /** Client sessions relayed so far. */
    std::uint64_t sessions() const { return sessions_.load(); }
    /** metricsEpoch frames the client never saw. */
    std::uint64_t withheld() const { return withheld_.load(); }

  private:
    void serve()
    {
        while (!stop_.load()) {
            net::Socket client = listener_.accept(100);
            if (!client.valid())
                continue;
            std::string error;
            net::Socket upstream =
                net::connectTo("127.0.0.1", upstreamPort_, 2'000, error);
            if (!upstream.valid())
                continue;
            sessions_.fetch_add(1);
            relay(client, upstream);
        }
    }

    /** Pump frames until the client's goodbye, either side's EOF or
     *  error, or stop. */
    void relay(net::Socket &client, net::Socket &upstream)
    {
        while (!stop_.load()) {
            pollfd fds[2] = {{client.fd(), POLLIN, 0},
                             {upstream.fd(), POLLIN, 0}};
            if (::poll(fds, 2, 50) <= 0)
                continue;
            net::Frame frame;
            if (fds[0].revents != 0) {
                if (net::recvMessage(client, frame, 2'000, 2'000) !=
                        net::FrameStatus::ok ||
                    net::sendMessage(upstream, frame, 2'000) !=
                        net::FrameStatus::ok ||
                    frame.type == net::MessageType::goodbye)
                    return;
                continue;
            }
            if (net::recvMessage(upstream, frame, 2'000, 2'000) !=
                net::FrameStatus::ok)
                return;
            if (frame.type == net::MessageType::metricsEpoch) {
                withheld_.fetch_add(1);
                continue;
            }
            if (net::sendMessage(client, frame, 2'000) !=
                net::FrameStatus::ok)
                return;
        }
    }

    std::uint16_t upstreamPort_;
    net::Listener listener_;
    std::thread thread_;
    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> sessions_{0};
    std::atomic<std::uint64_t> withheld_{0};
};

} // namespace fasttrack

#endif // FT_TESTS_EPOCH_WITHHOLDING_RELAY_HPP
