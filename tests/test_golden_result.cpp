#include <gtest/gtest.h>

#include <string>

#include "bench_common.hpp"
#include "crypto/sha256.hpp"
#include "experiment/json.hpp"
#include "util/bytes.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace geoanon;

/// Golden digest of one whole run: the SHA-256 of the deterministic result
/// JSON (perf excluded) of a short paper §5.1 AGFW-ACK scenario. Performance
/// work on any layer must leave every result byte as it was; this fails on
/// the first changed byte. A change that alters results on purpose updates
/// the constant and says why.
TEST(GoldenResult, PaperAgfwAck60sSeed1) {
    workload::ScenarioRunner runner(
        bench::paper_scenario(workload::Scheme::kAgfwAck, 50, 60.0, /*seed=*/1));
    const std::string json = experiment::result_to_json(runner.run(), /*include_perf=*/false);
    const crypto::Sha256::Digest digest = crypto::Sha256::hash(json);
    EXPECT_EQ(util::to_hex({digest.data(), digest.size()}),
              "d1e2aeac215e0cb86eae888f8202073dbd607bfab9976b8662aed98ce7ae1984")
        << json;
}

}  // namespace
