// The one recovery loop around a device launch. `device_error` is the
// only retryable failure (xpu/fault.hpp); injected faults are keyed by the
// queue's launch counter, so every retry is a fresh launch. The serving
// layer retries with capped exponential backoff, `solver::solve_resilient`
// immediately.
#pragma once

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>

#include "xpu/fault.hpp"

namespace batchlin::xpu {

struct retry_policy {
    /// Additional attempts after the first `device_error`.
    index_type retries = 0;
    /// Sleep before the first retry, doubling per retry up to
    /// `max_backoff`; zero retries immediately.
    std::chrono::microseconds backoff{0};
    std::chrono::microseconds max_backoff{0};
};

/// Running books of one or more retried launch sequences.
struct retry_tally {
    index_type attempts = 0;
    index_type faults = 0;
    index_type retries = 0;
    std::string last_fault;
};

/// Calls `launch` until it returns without throwing `device_error`, at
/// most `1 + policy.retries` times, booking every attempt in `tally`.
/// Returns the launch's result, or nothing once the retries are
/// exhausted; any other exception propagates.
template <typename Launch>
auto retry_device_faults(const retry_policy& policy, retry_tally& tally,
                         Launch&& launch)
    -> std::optional<std::invoke_result_t<Launch&>>
{
    auto backoff = policy.backoff;
    for (index_type retry = 0;; ++retry) {
        ++tally.attempts;
        try {
            return launch();
        } catch (const device_error& ex) {
            ++tally.faults;
            tally.last_fault = ex.what();
            if (retry >= policy.retries) {
                return std::nullopt;
            }
            ++tally.retries;
            if (backoff.count() > 0) {
                std::this_thread::sleep_for(backoff);
                backoff = std::min(backoff * 2, policy.max_backoff);
            }
        }
    }
}

}  // namespace batchlin::xpu
