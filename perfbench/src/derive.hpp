// Pure derivations the benchmark applies to what it records: percentiles
// and the rule for which percentile a sample supports, time to the first
// fresh commit after an instant (the outage metric), failure accounting, and
// per-op normalisation. Header-only and free of simulator types so the unit
// tests in ../tests exercise exactly the code the benchmark runs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------ percentiles

/// A percentile is reported only when at least this many samples lie beyond
/// it, so a tail figure never rests on a handful of requests.
constexpr std::size_t kTailSamples = 10;

/// Samples above the nearest-rank position of percentile `p_tenths` (in
/// tenths of a percent: 990 = p99), computed in integers so p99 of 1000
/// samples has exactly 10 beyond it.
inline std::size_t samples_beyond(std::size_t n, unsigned p_tenths) {
    const std::size_t rank = (n * p_tenths + 999) / 1000;
    return n - std::min(rank, n);
}

inline bool percentile_supported(std::size_t n, unsigned p_tenths) {
    return samples_beyond(n, p_tenths) >= kTailSamples;
}

/// The highest of p99.9, p99, p90 and p50 that `n` samples support, in
/// tenths of a percent; 0 when not even the median is supported.
inline unsigned highest_supported_percentile(std::size_t n) {
    for (unsigned p : {999u, 990u, 900u, 500u}) {
        if (percentile_supported(n, p)) return p;
    }
    return 0;
}

/// Percentile of `sorted` (ascending) with linear interpolation between
/// closest ranks: the same rule as neo::Histogram::percentile, so values
/// agree with the harness's own Measured figures.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
    if (sorted.empty()) return 0;
    if (sorted.size() == 1) return sorted[0];
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

inline double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return percentile_sorted(v, 50);
}

// ----------------------------------------------------------------- outage

/// One committed request on the client-observed timeline, in virtual ns:
/// when it was due (issued, for a closed loop) and when it committed.
struct Completion {
    std::int64_t due = 0;
    std::int64_t done = 0;
};

/// Answers "how long after instant T did the first request due at or after
/// T commit?" for many instants: completions sorted by due time plus a
/// suffix minimum of commit times.
class FreshCommitIndex {
  public:
    explicit FreshCommitIndex(std::vector<Completion> c) : c_(std::move(c)) {
        std::sort(c_.begin(), c_.end(),
                  [](const Completion& a, const Completion& b) { return a.due < b.due; });
        suffix_min_.assign(c_.size() + 1, std::numeric_limits<std::int64_t>::max());
        for (std::size_t i = c_.size(); i-- > 0;) {
            suffix_min_[i] = std::min(suffix_min_[i + 1], c_[i].done);
        }
    }

    /// Virtual ns from `at` to the first commit of a request due at or
    /// after `at`; nullopt when no such request committed.
    std::optional<std::int64_t> after(std::int64_t at) const {
        auto it = std::lower_bound(c_.begin(), c_.end(), at,
                                   [](const Completion& a, std::int64_t t) { return a.due < t; });
        const std::int64_t first = suffix_min_[static_cast<std::size_t>(it - c_.begin())];
        if (first == std::numeric_limits<std::int64_t>::max()) return std::nullopt;
        return first - at;
    }

    /// Mean of after() over `instants`; nullopt if any instant has no fresh
    /// commit (service never resumed).
    std::optional<double> mean_after(const std::vector<std::int64_t>& instants) const {
        if (instants.empty()) return std::nullopt;
        double sum = 0;
        for (std::int64_t t : instants) {
            auto d = after(t);
            if (!d) return std::nullopt;
            sum += static_cast<double>(*d);
        }
        return sum / static_cast<double>(instants.size());
    }

  private:
    std::vector<Completion> c_;
    std::vector<std::int64_t> suffix_min_;
};

/// `n` instants evenly spaced over [from, to): where the outage metric is
/// sampled on a workload without an injected fault.
inline std::vector<std::int64_t> even_instants(std::int64_t from, std::int64_t to, int n) {
    std::vector<std::int64_t> out;
    for (int i = 0; i < n; ++i) out.push_back(from + (to - from) * i / n);
    return out;
}

// ------------------------------------------------------------- accounting

/// Every client operation attempted ends in exactly one bucket.
struct OpTally {
    std::uint64_t attempted = 0;
    std::uint64_t committed = 0;    // reply passed the output check, op took effect
    std::uint64_t aborted = 0;      // transaction refused by concurrency control
    std::uint64_t wrong = 0;        // reply failed the output check
    std::uint64_t uncommitted = 0;  // still outstanding (or never sent) after the drain

    bool consistent() const { return committed + aborted + wrong + uncommitted == attempted; }
    /// Operations that failed the output check or never completed: these,
    /// unlike aborts, are errors of the program under test.
    std::uint64_t errors() const { return wrong + uncommitted; }
    /// Share of attempted operations that failed: aborted, wrong or
    /// uncommitted at the end of the drain.
    double fail_frac() const {
        if (attempted == 0) return 0;
        return static_cast<double>(aborted + wrong + uncommitted) /
               static_cast<double>(attempted);
    }
    double ok_frac() const { return attempted == 0 ? 0 : 1.0 - fail_frac(); }

    OpTally& operator+=(const OpTally& o) {
        attempted += o.attempted;
        committed += o.committed;
        aborted += o.aborted;
        wrong += o.wrong;
        uncommitted += o.uncommitted;
        return *this;
    }
};

// ---------------------------------------------------------- normalisation

/// `total` per committed operation; 0 when nothing committed (the caller
/// treats zero commits as a failed run, so the value is never read then).
inline double per_op(double total, std::uint64_t ops) {
    return ops == 0 ? 0.0 : total / static_cast<double>(ops);
}
inline double per_kop(double total, std::uint64_t ops) { return 1000.0 * per_op(total, ops); }
/// num / den with 0/0 = 0 (ratios of counters that may both be zero, such
/// as signatures generated over signatures attempted under HMAC auth).
inline double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

}  // namespace perfbench
