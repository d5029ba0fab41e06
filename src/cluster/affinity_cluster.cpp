#include "cluster/affinity_cluster.hpp"

#include <algorithm>
#include <vector>

#include "support/assert.hpp"

namespace memopt {

AddressMap affinity_clustering(const BlockProfile& profile, const AffinityMatrix& affinity,
                               const AffinityClusterParams& params) {
    require(affinity.num_blocks() == profile.num_blocks(),
            "affinity_clustering: affinity matrix does not match profile");
    require(params.tail_window >= 1, "affinity_clustering: tail_window must be >= 1");
    const std::size_t n = profile.num_blocks();

    // Normalization constants.
    std::uint64_t max_count = 0;
    for (std::size_t b = 0; b < n; ++b)
        max_count = std::max(max_count, profile.counts(b).total());
    const double max_affinity = affinity.max_offdiagonal();

    // Loop invariants of the candidate scan: each block's weighted heat
    // and the affinity normalizer (divided by, never multiplied by its
    // reciprocal, so every score rounds as it always has).
    std::vector<double> weighted_heat(n, 0.0);
    if (max_count > 0) {
        for (std::size_t b = 0; b < n; ++b) {
            weighted_heat[b] = params.frequency_weight *
                               (static_cast<double>(profile.counts(b).total()) /
                                static_cast<double>(max_count));
        }
    }
    const double affinity_norm = max_affinity * static_cast<double>(params.tail_window);

    // Hot blocks are chained greedily; cold (zero-access) blocks keep their
    // original relative order at the tail.
    std::vector<std::size_t> hot;
    std::vector<std::size_t> cold;
    for (std::size_t b = 0; b < n; ++b) {
        (profile.counts(b).total() > 0 ? hot : cold).push_back(b);
    }

    std::vector<std::size_t> chain;
    chain.reserve(hot.size());
    std::vector<bool> placed(n, false);

    if (!hot.empty()) {
        // Seed: hottest block (stable for ties).
        std::size_t seed = hot.front();
        for (std::size_t b : hot) {
            if (profile.counts(b).total() > profile.counts(seed).total()) seed = b;
        }

        // Incremental attraction scores: attraction[b] is the affinity of b
        // to the blocks currently inside the tail window. Each placement
        // updates only the new (and evicted) chain member's neighbours —
        // O(degree) — instead of rescanning the window for every candidate,
        // turning the chain build from O(n^2 * window) into O(n^2 + n *
        // degree). Affinity weights are integer co-access counts, so the
        // running add/subtract bookkeeping is exact and the chain is
        // bit-identical to the rescanning formulation.
        std::vector<double> attraction(n, 0.0);
        auto tail_update = [&](std::size_t member, double sign) {
            affinity.for_each_neighbor(
                member, [&](std::size_t b, double w) { attraction[b] += sign * w; });
        };

        chain.push_back(seed);
        placed[seed] = true;
        tail_update(seed, 1.0);

        while (chain.size() < hot.size()) {
            double best_score = -1.0;
            std::size_t best_block = SIZE_MAX;
            for (std::size_t b : hot) {
                if (placed[b]) continue;
                double aff = attraction[b];
                if (max_affinity > 0.0) aff /= affinity_norm;
                const double score = aff + weighted_heat[b];
                if (score > best_score) {
                    best_score = score;
                    best_block = b;
                }
            }
            MEMOPT_ASSERT(best_block != SIZE_MAX);
            chain.push_back(best_block);
            placed[best_block] = true;
            tail_update(best_block, 1.0);
            if (chain.size() > params.tail_window)
                tail_update(chain[chain.size() - 1 - params.tail_window], -1.0);
        }
    }

    std::vector<std::size_t> perm(n, SIZE_MAX);
    std::size_t position = 0;
    for (std::size_t b : chain) perm[b] = position++;
    for (std::size_t b : cold) perm[b] = position++;
    MEMOPT_ASSERT(position == n);
    return AddressMap(profile.block_size(), std::move(perm));
}

}  // namespace memopt
