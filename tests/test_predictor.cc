/**
 * @file
 * Unit tests for the length-prediction subsystem (src/predict/):
 * oracle exactness, noisy-oracle determinism and bias, profile
 * quantile learning with warmup fallbacks, the profile's per-completion
 * served-value cache and its version contract, pairwise-rank win rates,
 * the factory, and the phase edge cases every predictor must survive
 * (startInAnswering / reasoningTokens == 0, finished requests).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/predict/oracle_predictor.hh"
#include "src/predict/predictor.hh"
#include "src/predict/profile_predictor.hh"
#include "src/predict/rank_predictor.hh"
#include "src/workload/request.hh"

namespace
{

using namespace pascal;
using predict::PredictorConfig;
using predict::PredictorType;
using workload::Request;
using workload::RequestSpec;

Request
makeRequest(RequestId id, TokenCount prompt, TokenCount reasoning,
            TokenCount answer, const std::string& dataset = "ds",
            bool start_in_answering = false)
{
    RequestSpec s;
    s.id = id;
    s.arrival = 0.0;
    s.promptTokens = prompt;
    s.reasoningTokens = reasoning;
    s.answerTokens = answer;
    s.startInAnswering = start_in_answering;
    s.dataset = dataset;
    return Request(s);
}

/** Advance a request by n decode tokens (no pool bookkeeping). */
void
advance(Request& req, TokenCount n)
{
    for (TokenCount i = 0; i < n; ++i)
        req.emitToken(0.0, 0);
}

TEST(OraclePredictor, ReadsTheSpecExactly)
{
    predict::OraclePredictor oracle;
    auto req = makeRequest(1, 100, 300, 50);

    EXPECT_DOUBLE_EQ(oracle.predictRemainingTokens(req), 350.0);
    EXPECT_DOUBLE_EQ(oracle.predictRemainingReasoningTokens(req),
                     300.0);

    advance(req, 120); // Mid-reasoning.
    EXPECT_DOUBLE_EQ(oracle.predictRemainingTokens(req), 230.0);
    EXPECT_DOUBLE_EQ(oracle.predictRemainingReasoningTokens(req),
                     180.0);

    advance(req, 200); // 320 generated: answering.
    EXPECT_DOUBLE_EQ(oracle.predictRemainingTokens(req), 30.0);
    EXPECT_DOUBLE_EQ(oracle.predictRemainingReasoningTokens(req), 0.0);

    advance(req, 30); // Finished.
    EXPECT_DOUBLE_EQ(oracle.predictRemainingTokens(req), 0.0);
    EXPECT_DOUBLE_EQ(oracle.rankScore(req), 0.0);
}

TEST(OraclePredictor, StartInAnsweringHasNoReasoningRemaining)
{
    predict::OraclePredictor oracle;
    // reasoningTokens == 0 is exactly the startInAnswering shape the
    // spec validator admits.
    auto req = makeRequest(2, 64, 0, 40, "ds", true);

    EXPECT_DOUBLE_EQ(oracle.predictRemainingReasoningTokens(req), 0.0);
    EXPECT_DOUBLE_EQ(oracle.predictRemainingTokens(req), 40.0);

    advance(req, 10);
    EXPECT_DOUBLE_EQ(oracle.predictRemainingTokens(req), 30.0);
    EXPECT_DOUBLE_EQ(oracle.predictRemainingReasoningTokens(req), 0.0);
}

TEST(NoisyOraclePredictor, DeterministicPerRequestAndCallOrderFree)
{
    predict::NoisyOraclePredictor a(0.5, 42);
    predict::NoisyOraclePredictor b(0.5, 42);
    auto r1 = makeRequest(1, 100, 300, 50);
    auto r2 = makeRequest(2, 100, 300, 50);

    // Query b in the opposite order: factors must not depend on call
    // order, only on {seed, id}.
    double b2 = b.predictRemainingTokens(r2);
    double b1 = b.predictRemainingTokens(r1);
    EXPECT_DOUBLE_EQ(a.predictRemainingTokens(r1), b1);
    EXPECT_DOUBLE_EQ(a.predictRemainingTokens(r2), b2);

    // Different ids draw different factors (astronomically unlikely to
    // collide), different seeds likewise.
    EXPECT_NE(a.noiseFactor(1), a.noiseFactor(2));
    predict::NoisyOraclePredictor c(0.5, 43);
    EXPECT_NE(c.noiseFactor(1), a.noiseFactor(1));

    // Both estimates of one request share the factor.
    EXPECT_DOUBLE_EQ(a.predictRemainingReasoningTokens(r1),
                     300.0 * a.noiseFactor(1));
    EXPECT_DOUBLE_EQ(a.predictRemainingTokens(r1),
                     350.0 * a.noiseFactor(1));
}

TEST(NoisyOraclePredictor, MeanOneAndZeroMapsToZero)
{
    predict::NoisyOraclePredictor noisy(0.5, 7);
    // E[lognormal(-sigma^2/2, sigma)] = 1: the mean factor over many
    // ids should be close to 1.
    double sum = 0.0;
    const int kIds = 4000;
    for (RequestId id = 0; id < kIds; ++id)
        sum += noisy.noiseFactor(id);
    EXPECT_NEAR(sum / kIds, 1.0, 0.05);

    // A finished request predicts exactly 0 regardless of noise.
    auto req = makeRequest(9, 10, 2, 1);
    advance(req, 3);
    EXPECT_TRUE(req.finished());
    EXPECT_DOUBLE_EQ(noisy.predictRemainingTokens(req), 0.0);
}

TEST(ProfilePredictor, FallsBackToPriorsThenGlobalThenDataset)
{
    predict::DatasetProfilePredictor profile(0.5, 2);
    auto fresh = makeRequest(1, 64, 500, 100, "mathy");

    // No completions anywhere: fixed priors (600 + 500).
    EXPECT_DOUBLE_EQ(profile.predictRemainingTokens(fresh), 1100.0);

    // Two completions of a *different* dataset: global stats kick in.
    for (RequestId id = 10; id < 12; ++id) {
        auto done = makeRequest(id, 64, 200, 40, "chatty");
        profile.observeCompletion(done);
    }
    EXPECT_DOUBLE_EQ(profile.predictRemainingTokens(fresh),
                     200.0 + 40.0);
    EXPECT_EQ(profile.observations("mathy"), 0u);

    // Two completions of the request's own dataset: its medians win.
    for (RequestId id = 20; id < 22; ++id) {
        auto done = makeRequest(id, 64, 800, 120, "mathy");
        profile.observeCompletion(done);
    }
    EXPECT_EQ(profile.observations("mathy"), 2u);
    EXPECT_DOUBLE_EQ(profile.predictRemainingTokens(fresh),
                     800.0 + 120.0);
}

TEST(ProfilePredictor, SubtractsProgressAndNeverPredictsBelowOne)
{
    predict::DatasetProfilePredictor profile(0.5, 1);
    auto done = makeRequest(1, 64, 400, 100, "ds");
    profile.observeCompletion(done);

    auto req = makeRequest(2, 64, 1000, 100, "ds");
    advance(req, 300);
    // Median says 400 total; 300 done -> 100 reasoning left + 100
    // answer.
    EXPECT_DOUBLE_EQ(profile.predictRemainingReasoningTokens(req),
                     100.0);
    EXPECT_DOUBLE_EQ(profile.predictRemainingTokens(req), 200.0);

    advance(req, 300); // 600 generated: outlived the median.
    EXPECT_DOUBLE_EQ(profile.predictRemainingReasoningTokens(req),
                     1.0);

    advance(req, 400); // 1000 generated: answering now.
    EXPECT_DOUBLE_EQ(profile.predictRemainingReasoningTokens(req),
                     0.0);
    EXPECT_DOUBLE_EQ(profile.predictRemainingTokens(req), 100.0);
    advance(req, 99);
    EXPECT_DOUBLE_EQ(profile.predictRemainingTokens(req), 1.0);
}

TEST(ProfilePredictor, StartInAnsweringSkewsNoReasoningQuantile)
{
    predict::DatasetProfilePredictor profile(0.5, 1);
    auto normal = makeRequest(1, 64, 400, 100, "ds");
    profile.observeCompletion(normal);
    auto fig5 = makeRequest(2, 64, 0, 300, "ds", true);
    profile.observeCompletion(fig5);

    // Reasoning median stays 400 (the zero-reasoning completion is
    // excluded); answering median is the interpolated 200.
    auto req = makeRequest(3, 64, 999, 10, "ds");
    EXPECT_DOUBLE_EQ(profile.predictRemainingReasoningTokens(req),
                     400.0);
    EXPECT_DOUBLE_EQ(profile.predictRemainingTokens(req),
                     400.0 + 200.0);

    // A startInAnswering request only ever predicts answering work.
    auto fig5_fresh = makeRequest(4, 64, 0, 50, "ds", true);
    EXPECT_DOUBLE_EQ(
        profile.predictRemainingReasoningTokens(fig5_fresh), 0.0);
    EXPECT_DOUBLE_EQ(profile.predictRemainingTokens(fig5_fresh),
                     200.0);
}

TEST(ProfilePredictor, VersionMovesOnlyWithServedValues)
{
    // Every answer is 50 tokens, so only reasoning medians can move.
    predict::DatasetProfilePredictor profile(0.5, 2);
    auto probe_a = makeRequest(1, 64, 5000, 50, "a");
    auto probe_b = makeRequest(2, 64, 5000, 50, "b");
    auto observe = [&](const std::string& ds, TokenCount reasoning) {
        auto before = profile.version();
        profile.observeCompletion(makeRequest(9, 64, reasoning, 50, ds));
        return profile.version() != before;
    };

    EXPECT_TRUE(observe("a", 100)); // Priors give way to (100, 50).
    EXPECT_DOUBLE_EQ(profile.predictRemainingTokens(probe_b), 150.0);
    // The same lengths again: every served value stays put, including
    // a's own median taking over from the identical global one.
    EXPECT_FALSE(observe("a", 100));
    EXPECT_FALSE(observe("a", 100));
    // b is still warming up and the global median holds at 100.
    EXPECT_FALSE(observe("b", 300));
    EXPECT_DOUBLE_EQ(profile.predictRemainingTokens(probe_b), 150.0);
    // b crosses warmupCompletions: its own median (300) is served.
    EXPECT_TRUE(observe("b", 300));
    EXPECT_DOUBLE_EQ(profile.predictRemainingTokens(probe_b), 350.0);
    EXPECT_DOUBLE_EQ(profile.predictRemainingTokens(probe_a), 150.0);
    // {100, 300, 300}: b's median holds; {100, 100, 300, 300}: it
    // moves to 200.
    EXPECT_FALSE(observe("b", 100));
    EXPECT_TRUE(observe("b", 100));
    EXPECT_DOUBLE_EQ(profile.predictRemainingTokens(probe_b), 250.0);
}

TEST(ProfilePredictor, CachedPredictionsMatchRunningQuantilesBitwise)
{
    // Reference: the per-query selection the cache replaces, read
    // straight from RunningQuantile (own stats once warmed up, else
    // global, else the 600/500 priors).
    constexpr int kWarmup = 8;
    for (double q : {0.5, 0.9}) {
        SCOPED_TRACE("quantile " + std::to_string(q));
        predict::DatasetProfilePredictor profile(q, kWarmup);
        std::map<std::string, std::pair<predict::RunningQuantile,
                                        predict::RunningQuantile>>
            own;
        predict::RunningQuantile all_reasoning;
        predict::RunningQuantile all_answering;
        auto expected = [&](const std::string& ds, bool reasoning) {
            auto it = own.find(ds);
            if (it != own.end()) {
                const auto& stats =
                    reasoning ? it->second.first : it->second.second;
                if (stats.count() >= static_cast<std::size_t>(kWarmup))
                    return stats.quantile(q);
            }
            const auto& all = reasoning ? all_reasoning : all_answering;
            if (all.count() > 0)
                return all.quantile(q);
            return reasoning ? 600.0 : 500.0;
        };
        // "z" never completes, so it always reads the fallback.
        const std::vector<std::string> datasets = {"x", "y", "z"};
        auto served = [&]() {
            std::vector<double> out;
            for (const auto& ds : datasets) {
                out.push_back(expected(ds, true));
                out.push_back(expected(ds, false));
            }
            return out;
        };

        std::vector<Request> probes;
        std::vector<std::string> probe_ds;
        for (const auto& ds : datasets) {
            for (TokenCount progress : {0, 150, 1100}) {
                probes.push_back(makeRequest(1, 64, 1000, 1000, ds));
                advance(probes.back(), progress);
                probe_ds.push_back(ds);
            }
            probes.push_back(makeRequest(2, 64, 0, 1000, ds, true));
            advance(probes.back(), 30);
            probe_ds.push_back(ds);
        }

        Rng rng(2027);
        for (int i = 0; i < 400; ++i) {
            const std::string ds = rng.bernoulli(0.7) ? "x" : "y";
            const bool fig5 = rng.bernoulli(0.1);
            const TokenCount reasoning =
                fig5 ? 0 : static_cast<TokenCount>(rng.uniformInt(1, 60)) * 10;
            const TokenCount answer =
                static_cast<TokenCount>(rng.uniformInt(1, 30)) * 10;
            const auto before = served();
            const auto version = profile.version();
            profile.observeCompletion(
                makeRequest(100 + i, 64, reasoning, answer, ds, fig5));
            if (!fig5) {
                own[ds].first.add(static_cast<double>(reasoning));
                all_reasoning.add(static_cast<double>(reasoning));
            }
            own[ds].second.add(static_cast<double>(answer));
            all_answering.add(static_cast<double>(answer));
            EXPECT_EQ(profile.version() != version, served() != before)
                << "after completion " << i;

            for (std::size_t p = 0; p < probes.size(); ++p) {
                const Request& r = probes[p];
                const double exp_answer = expected(probe_ds[p], false);
                double want_reasoning = 0.0;
                double want_total = 0.0;
                if (r.phase() == workload::Phase::Reasoning) {
                    want_reasoning = std::max(
                        expected(probe_ds[p], true) -
                            static_cast<double>(r.reasoningGenerated()),
                        1.0);
                    want_total = want_reasoning + exp_answer;
                } else {
                    want_total = std::max(
                        exp_answer -
                            static_cast<double>(r.answerGenerated()),
                        1.0);
                }
                ASSERT_EQ(profile.predictRemainingReasoningTokens(r),
                          want_reasoning)
                    << "probe " << p << " after completion " << i;
                ASSERT_EQ(profile.predictRemainingTokens(r), want_total)
                    << "probe " << p << " after completion " << i;
            }
        }
    }
}

TEST(RunningQuantile, MatchesSortedReferenceBitwise)
{
    // The sorted-insert buffer must answer every query exactly like a
    // fresh sort of everything seen so far. Few distinct values (with
    // an occasional fractional one) keep long runs of duplicates in
    // play, where an insert position off by one would still pass a
    // tolerance check but not a bitwise one.
    predict::RunningQuantile q;
    EXPECT_EQ(q.quantile(0.5), 0.0);
    Rng rng(2026);
    std::vector<double> seen;
    for (int i = 0; i < 10000; ++i) {
        double x = static_cast<double>(rng.uniformInt(0, 40));
        if (rng.bernoulli(0.1))
            x += rng.uniformReal(0.0, 1.0);
        q.add(x);
        seen.push_back(x);
        std::vector<double> ref = seen;
        std::sort(ref.begin(), ref.end());
        for (double p : {0.1, 0.5, 0.9}) {
            double pos = p * static_cast<double>(ref.size() - 1);
            auto lo = static_cast<std::size_t>(pos);
            std::size_t hi = std::min(lo + 1, ref.size() - 1);
            double frac = pos - static_cast<double>(lo);
            double want = ref[lo] + frac * (ref[hi] - ref[lo]);
            ASSERT_EQ(q.quantile(p), want) << "after " << i + 1
                                           << " adds, q=" << p;
        }
    }
    EXPECT_EQ(q.count(), seen.size());
}

TEST(RankPredictor, LearnsWhichBucketFinishesFirst)
{
    predict::PairwiseRankPredictor rank(1);

    // "short" dataset completes 200-token requests, "long" 4000-token
    // ones; prompts sized so the buckets differ.
    for (RequestId id = 0; id < 8; ++id) {
        auto s = makeRequest(id, 64, 150, 50, "short");
        auto l = makeRequest(100 + id, 64, 3800, 200, "long");
        rank.observeCompletion(s);
        rank.observeCompletion(l);
    }

    auto short_req = makeRequest(50, 64, 999, 10, "short");
    auto long_req = makeRequest(51, 64, 999, 10, "long");
    EXPECT_GT(rank.winRate(short_req), 0.9);
    EXPECT_LT(rank.winRate(long_req), 0.1);
    EXPECT_LT(rank.rankScore(short_req), rank.rankScore(long_req));

    // Unseen bucket: neutral score.
    auto unknown = makeRequest(52, 64, 100, 10, "mystery");
    EXPECT_DOUBLE_EQ(rank.winRate(unknown), 0.5);

    // Length fallback follows the bucket means.
    EXPECT_NEAR(rank.predictRemainingTokens(short_req), 150.0 + 50.0,
                1.0);
    EXPECT_NEAR(rank.predictRemainingTokens(long_req), 3800.0 + 200.0,
                1.0);
}

TEST(RankPredictor, ZeroWarmupSingleBucketStaysNeutralNotNaN)
{
    // Regression: with warmupCompletions == 0 (validate() allows it)
    // and every completion in one bucket, that bucket has completions
    // but zero pairwise games; the win rate must stay the neutral 0.5
    // rather than compute 0/0 (a NaN rank score would break the
    // schedulers' strict-weak-ordering sorts).
    predict::PairwiseRankPredictor rank(0);
    for (RequestId id = 0; id < 3; ++id) {
        auto done = makeRequest(id, 64, 100, 20, "only");
        rank.observeCompletion(done);
    }
    auto req = makeRequest(9, 64, 100, 20, "only");
    double rate = rank.winRate(req);
    EXPECT_FALSE(std::isnan(rate));
    EXPECT_DOUBLE_EQ(rate, 0.5);
    EXPECT_FALSE(std::isnan(rank.rankScore(req)));
}

TEST(RankPredictor, WarmupAndEdgeCases)
{
    predict::PairwiseRankPredictor rank(1000000);
    for (RequestId id = 0; id < 4; ++id) {
        auto s = makeRequest(id, 64, 100, 20, "a");
        auto l = makeRequest(10 + id, 64, 2000, 20, "b");
        rank.observeCompletion(s);
        rank.observeCompletion(l);
    }
    // Far below the warmup game count: everyone stays neutral.
    auto req = makeRequest(50, 64, 100, 20, "a");
    EXPECT_DOUBLE_EQ(rank.winRate(req), 0.5);

    // startInAnswering: no reasoning remaining, answering fallback.
    auto fig5 = makeRequest(60, 64, 0, 40, "a", true);
    EXPECT_DOUBLE_EQ(rank.predictRemainingReasoningTokens(fig5), 0.0);
    EXPECT_GT(rank.predictRemainingTokens(fig5), 0.0);

    // Finished requests score 0 (front of any order, instantly done).
    auto done = makeRequest(70, 64, 2, 1, "a");
    advance(done, 3);
    EXPECT_DOUBLE_EQ(rank.rankScore(done), 0.0);
    EXPECT_DOUBLE_EQ(rank.predictRemainingTokens(done), 0.0);
}

TEST(PredictorConfig, ValidationAndNames)
{
    PredictorConfig cfg;
    EXPECT_EQ(cfg.name(), "none");
    cfg.validate();

    cfg.type = PredictorType::NoisyOracle;
    EXPECT_THROW(cfg.validate(), FatalError); // sigma missing.
    cfg.noiseSigma = 0.5;
    cfg.validate();
    EXPECT_EQ(cfg.name(), "noisy(0.50)");

    cfg.type = PredictorType::Oracle;
    EXPECT_THROW(cfg.validate(), FatalError); // sigma inconsistent.
    cfg.noiseSigma = 0.0;
    cfg.validate();
    EXPECT_EQ(cfg.name(), "oracle");

    cfg.type = PredictorType::Profile;
    cfg.quantile = 1.0;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg.quantile = 0.5;
    cfg.warmupCompletions = -1;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg.warmupCompletions = 4;
    cfg.validate();
    EXPECT_EQ(cfg.name(), "profile");

    cfg.type = PredictorType::Rank;
    EXPECT_EQ(cfg.name(), "rank");
}

TEST(PredictorFactory, BuildsMatchingTypes)
{
    PredictorConfig cfg;
    EXPECT_EQ(predict::makePredictor(cfg), nullptr);

    cfg.type = PredictorType::Oracle;
    auto oracle = predict::makePredictor(cfg);
    EXPECT_NE(dynamic_cast<predict::OraclePredictor*>(oracle.get()),
              nullptr);
    EXPECT_EQ(oracle->name(), "oracle");

    cfg.type = PredictorType::NoisyOracle;
    cfg.noiseSigma = 0.3;
    auto noisy = predict::makePredictor(cfg);
    EXPECT_NE(
        dynamic_cast<predict::NoisyOraclePredictor*>(noisy.get()),
        nullptr);

    cfg = PredictorConfig{};
    cfg.type = PredictorType::Profile;
    auto profile = predict::makePredictor(cfg);
    EXPECT_NE(
        dynamic_cast<predict::DatasetProfilePredictor*>(profile.get()),
        nullptr);

    cfg.type = PredictorType::Rank;
    auto rank = predict::makePredictor(cfg);
    EXPECT_NE(
        dynamic_cast<predict::PairwiseRankPredictor*>(rank.get()),
        nullptr);
}

} // namespace
