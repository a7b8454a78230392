/**
 * @file
 * Shared glue for the command-line tools (casq_compile, casq_shard,
 * casq_serve, casq_job): every payload-decode failure and every
 * top-level error funnels through the helpers here, so all four
 * tools render the same canonical diagnostic -- "file: byte N:
 * message" for corrupt payloads (describePayloadError), "file:
 * message" for other file failures, and "<tool>: message" at the
 * top level.  flagValue() reads every value flag, so a value flag
 * given last fails as "<tool>: --flag needs a value" in all four.
 */

#ifndef CASQ_TOOLS_TOOL_COMMON_HH
#define CASQ_TOOLS_TOOL_COMMON_HH

#include <cstdint>
#include <cstring>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/serialize.hh"

namespace casq::tool {

/**
 * The one canonical error rendering: SerializeErrors (corrupt or
 * truncated payloads) become "path: byte N: message"; anything else
 * becomes "path: message" (or just the message without a path).
 */
inline std::string
describeError(const std::string &path, const std::exception &err)
{
    if (const auto *payload =
            dynamic_cast<const SerializeError *>(&err)) {
        return describePayloadError(path, *payload);
    }
    if (path.empty())
        return err.what();
    return path + ": " + err.what();
}

/** Read a payload file, rendering I/O failures canonically. */
inline std::vector<std::uint8_t>
readPayloadFile(const std::string &path)
{
    try {
        return readBinaryFile(path);
    } catch (const SerializeError &err) {
        throw SerializeError(describePayloadError(path, err));
    }
}

/**
 * Decode in-memory payload bytes read from `path`; a decode failure
 * rethrows SerializeError with the canonical "path: byte N:"
 * rendering already applied.
 */
template <class Payload>
Payload
decodePayload(const std::string &path,
              const std::vector<std::uint8_t> &bytes)
{
    try {
        return Payload::decode(bytes);
    } catch (const SerializeError &err) {
        throw SerializeError(describePayloadError(path, err));
    }
}

/** Read + decode a payload file in one step. */
template <class Payload>
Payload
decodePayloadFile(const std::string &path)
{
    return decodePayload<Payload>(path, readPayloadFile(path));
}

/**
 * If argv[i] is `flag`, consume it and return its value (advancing
 * i); otherwise return nullptr.  A value flag given last throws
 * std::invalid_argument naming the flag, instead of falling through
 * to the caller's "unknown argument" branch.
 */
inline const char *
flagValue(int argc, char **argv, int &i, const char *flag)
{
    if (std::strcmp(argv[i], flag) != 0)
        return nullptr;
    if (i + 1 >= argc)
        throw std::invalid_argument(std::string(flag) +
                                    " needs a value");
    return argv[++i];
}

/**
 * Top-level tool wrapper: run `body`, printing any escaped failure
 * as "<tool>: message" on stderr and returning the failure exit
 * code.
 */
template <class Body>
int
runTool(const char *tool, Body &&body)
{
    try {
        return body();
    } catch (const std::exception &err) {
        std::cerr << tool << ": " << describeError("", err) << "\n";
        return 1;
    }
}

} // namespace casq::tool

#endif // CASQ_TOOLS_TOOL_COMMON_HH
