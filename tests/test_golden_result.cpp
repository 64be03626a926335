#include <gtest/gtest.h>

#include <string>

#include "bench_common.hpp"
#include "crypto/sha256.hpp"
#include "experiment/json.hpp"
#include "util/bytes.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace geoanon;

/// Golden digests of whole runs: the SHA-256 of the deterministic result
/// JSON (perf excluded). Performance work on any layer must leave every
/// result byte as it was; these fail on the first changed byte. A change
/// that alters results on purpose updates the constants and says why.
std::string result_digest(const workload::ScenarioConfig& cfg) {
    workload::ScenarioRunner runner(cfg);
    const std::string json = experiment::result_to_json(runner.run(), /*include_perf=*/false);
    const crypto::Sha256::Digest digest = crypto::Sha256::hash(json);
    return util::to_hex({digest.data(), digest.size()});
}

/// Short paper §5.1 AGFW-ACK scenario.
TEST(GoldenResult, PaperAgfwAck60sSeed1) {
    EXPECT_EQ(result_digest(bench::paper_scenario(workload::Scheme::kAgfwAck, 50, 60.0,
                                                  /*seed=*/1)),
              "d1e2aeac215e0cb86eae888f8202073dbd607bfab9976b8662aed98ce7ae1984");
}

/// Small 25-node runs. The digests were recorded on both event kernels (the
/// timer wheel and the binary-heap reference) and agree, so they also pin
/// the wheel to the heap's (time, id) pop order on a full stack.
workload::ScenarioConfig small_config(workload::Scheme scheme) {
    workload::ScenarioConfig cfg;
    cfg.scheme = scheme;
    cfg.seed = 42;
    cfg.num_nodes = 25;
    cfg.num_flows = 6;
    cfg.num_senders = 5;
    cfg.sim_seconds = 40.0;
    cfg.traffic_stop_s = 35.0;
    return cfg;
}

TEST(GoldenResult, GpsrGreedy40sSeed42) {
    EXPECT_EQ(result_digest(small_config(workload::Scheme::kGpsrGreedy)),
              "be30a48d045429c73cba4584f8495036f7da64527358577ab92a308d950645d4");
}

TEST(GoldenResult, AgfwAck40sSeed42) {
    EXPECT_EQ(result_digest(small_config(workload::Scheme::kAgfwAck)),
              "8efbc10a4296b068acb780bdeb055cf6e64ae5589dbdd6fec6eeacfc04b05549");
}

}  // namespace
