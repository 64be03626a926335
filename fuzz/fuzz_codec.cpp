// Fuzz harness for the packet codec (src/net/codec.cpp), plus a corpus
// replay of the JSON reader (util/json, obs/trace_read) — the components that
// parse untrusted bytes.
//
// Two build modes share the same property checks:
//
//  - libFuzzer (clang only): configure with -DGEOANON_LIBFUZZER=ON; the
//    harness exports LLVMFuzzerTestOneInput and libFuzzer drives it.
//        ./build/fuzz/fuzz_codec fuzz/corpus_bin/
//  - standalone replayer (default, any compiler): a main() that replays the
//    checked-in hex corpus (fuzz/corpus/*.hex) and JSON corpus
//    (fuzz/corpus_json/*.json), or any files/directories given on the command
//    line, applying the same properties deterministically.
//    This is what CI and tests/test_codec_fuzz_regressions.cpp exercise, so
//    the corpus is covered even without libFuzzer.
//
// Properties enforced per input:
//  P1  decode_ex never crashes or over-reads (sanitizers catch violations);
//  P2  error and packet agree: packet engaged iff error == kOk;
//  P3  a decoded packet re-encodes, and the re-encoding decodes cleanly;
//  P4  re-encoding is a fixed point: encode(decode(encode(p))) == encode(p).
//
// Properties per .json input (replayer only):
//  J1  util::parse_json and obs::load_chrome_trace never crash or overflow
//      the stack (sanitizers catch violations);
//  J2  each returns false exactly when it sets an error;
//  J3  a file named reject_* is rejected; a valid_* file loads and re-exports
//      byte-identically (so 64-bit ids above 2^53 survive exactly);
//  J4  re-exporting a loaded trace is a fixed point of load + export.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>

#include "net/codec.hpp"
#include "obs/export.hpp"
#include "obs/trace_read.hpp"
#include "util/bytes.hpp"
#include "util/json.hpp"

namespace {

using geoanon::net::codec::decode_ex;
using geoanon::net::codec::DecodeError;
using geoanon::net::codec::encode;

/// Returns nullptr if all properties hold, else a description of the failure.
const char* check_one(std::span<const std::uint8_t> wire, bool include_trace) {
    const auto result = decode_ex(wire, include_trace);
    if (result.packet.has_value() != (result.error == DecodeError::kOk))
        return "P2: packet presence disagrees with error code";
    if (!result.packet) return nullptr;  // clean rejection

    const auto once = encode(*result.packet, /*include_trace=*/false);
    const auto again = decode_ex(once, /*include_trace=*/false);
    if (!again.packet) return "P3: re-encoded packet fails to decode";
    const auto twice = encode(*again.packet, /*include_trace=*/false);
    if (twice != once) return "P4: re-encoding is not a fixed point";
    return nullptr;
}

const char* check_both_modes(std::span<const std::uint8_t> wire) {
    if (const char* err = check_one(wire, /*include_trace=*/false)) return err;
    return check_one(wire, /*include_trace=*/true);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
    if (const char* err = check_both_modes({data, size})) {
        std::fprintf(stderr, "property violated: %s\n", err);
        std::abort();
    }
    return 0;
}

#ifndef GEOANON_LIBFUZZER

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace {

std::string read_file(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Loads a corpus file: .hex files hold one hex string (whitespace ignored),
/// anything else is treated as raw bytes.
std::vector<std::uint8_t> load_input(const std::filesystem::path& path) {
    const std::string content = read_file(path);
    if (path.extension() == ".hex") {
        std::string hex;
        for (char c : content)
            if (!std::isspace(static_cast<unsigned char>(c))) hex.push_back(c);
        if (auto bytes = geoanon::util::from_hex(hex)) return *bytes;
        std::fprintf(stderr, "%s: invalid hex corpus file\n", path.c_str());
        std::exit(2);
    }
    return {content.begin(), content.end()};
}

/// Returns nullptr if J1-J4 hold, else a description of the failure.
const char* check_json(const std::string& text, const std::string& name, bool& loaded) {
    using geoanon::obs::load_chrome_trace;
    using geoanon::obs::to_chrome_trace_json;
    geoanon::util::JsonValue doc;
    std::string doc_error;
    const bool parsed = geoanon::util::parse_json(text, doc, doc_error);
    geoanon::obs::LoadedTrace trace;
    std::string error;
    loaded = load_chrome_trace(text, trace, error);
    if (parsed != doc_error.empty() || loaded != error.empty())
        return "J2: result disagrees with the error message";
    if (loaded && !parsed) return "J2: trace loads but the document does not parse";
    if (name.starts_with("reject_") && loaded) return "J3: reject_ input was accepted";
    if (name.starts_with("valid_") && !loaded) return "J3: valid_ input was rejected";
    if (!loaded) return nullptr;

    const std::string once = to_chrome_trace_json(trace.events, trace.meta);
    if (name.starts_with("valid_") && once != text)
        return "J3: valid_ input does not re-export byte-identically";
    geoanon::obs::LoadedTrace again;
    if (!load_chrome_trace(once, again, error)) return "J4: re-export fails to load";
    if (to_chrome_trace_json(again.events, again.meta) != once)
        return "J4: re-export is not a fixed point";
    return nullptr;
}

int replay_file(const std::filesystem::path& path, int& count) {
    ++count;
    if (path.extension() == ".json") {
        const std::string text = read_file(path);
        bool loaded = false;
        if (const char* err = check_json(text, path.filename().string(), loaded)) {
            std::fprintf(stderr, "FAIL %s: %s\n", path.c_str(), err);
            return 1;
        }
        std::printf("ok   %-40s %4zu bytes -> %s\n", path.filename().c_str(), text.size(),
                    loaded ? "loaded" : "rejected");
        return 0;
    }
    const auto input = load_input(path);
    const auto result = decode_ex(input, /*include_trace=*/false);
    if (const char* err = check_both_modes(input)) {
        std::fprintf(stderr, "FAIL %s: %s\n", path.c_str(), err);
        return 1;
    }
    std::printf("ok   %-40s %4zu bytes -> %s\n", path.filename().c_str(),
                input.size(), geoanon::net::codec::decode_error_name(result.error));
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    namespace fs = std::filesystem;
    std::vector<fs::path> roots;
    for (int i = 1; i < argc; ++i) roots.emplace_back(argv[i]);
    if (roots.empty()) {
        roots.emplace_back(GEOANON_CORPUS_DIR);
        roots.emplace_back(GEOANON_JSON_CORPUS_DIR);
    }

    int failures = 0;
    int count = 0;
    for (const auto& root : roots) {
        if (fs::is_directory(root)) {
            std::vector<fs::path> files;
            for (const auto& entry : fs::directory_iterator(root))
                if (entry.is_regular_file()) files.push_back(entry.path());
            std::sort(files.begin(), files.end());
            for (const auto& f : files) failures += replay_file(f, count);
        } else if (fs::exists(root)) {
            failures += replay_file(root, count);
        } else {
            std::fprintf(stderr, "no such corpus input: %s\n", root.c_str());
            return 2;
        }
    }
    std::printf("%d corpus inputs, %d failures\n", count, failures);
    return failures == 0 ? 0 : 1;
}

#endif  // GEOANON_LIBFUZZER
