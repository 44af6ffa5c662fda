#include "util/binary_io.hh"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

#include <unistd.h>

#include "util/logging.hh"

namespace smarts::util {

namespace fs = std::filesystem;

bool
publishFile(const std::string &path, const std::uint8_t *data,
            std::size_t size, const std::uint8_t *trailer,
            std::size_t trailerSize, std::string *error)
{
    // Write-then-rename so a crash mid-write never leaves a
    // half-written file behind a valid path. The temp name carries
    // the pid and a per-process counter so two processes (or
    // threads) racing to publish the same path each write their own
    // file; last rename wins with a complete file either way.
    static std::atomic<unsigned> serial{0};
    const fs::path tmp(log::format(path, ".tmp.", ::getpid(), ".",
                                   serial.fetch_add(1)));
    std::error_code ec;
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            if (error)
                *error = log::format("cannot open ", tmp.string(),
                                     " for writing");
            return false;
        }
        out.write(reinterpret_cast<const char *>(data),
                  static_cast<std::streamsize>(size));
        if (trailerSize)
            out.write(reinterpret_cast<const char *>(trailer),
                      static_cast<std::streamsize>(trailerSize));
        if (!out) {
            if (error)
                *error = log::format("short write to ", tmp.string());
            out.close();
            fs::remove(tmp, ec);
            return false;
        }
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        if (error)
            *error = log::format("cannot publish ", path, ": ",
                                 ec.message());
        fs::remove(tmp, ec);
        return false;
    }
    return true;
}

bool
BinaryWriter::writeFile(const std::string &path, std::string *error,
                        bool createDirs) const
{
    const fs::path target(path);
    if (createDirs && target.has_parent_path()) {
        std::error_code ec;
        fs::create_directories(target.parent_path(), ec);
        if (ec) {
            if (error)
                *error = log::format("cannot create directory ",
                                     target.parent_path().string(),
                                     ": ", ec.message());
            return false;
        }
    }
    const std::uint64_t checksum =
        fnv1a(buffer_.data(), buffer_.size());
    std::uint8_t trailer[8];
    for (int i = 0; i < 8; ++i)
        trailer[i] = static_cast<std::uint8_t>(checksum >> (8 * i));
    return publishFile(path, buffer_.data(), buffer_.size(), trailer,
                       sizeof trailer, error);
}

BinaryReader
BinaryReader::fromFile(const std::string &path,
                       const FileHeader &header, std::string *error)
{
    auto failed = [error](std::string why) {
        if (error)
            *error = std::move(why);
        BinaryReader reader({});
        reader.failed_ = true;
        return reader;
    };

    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        return failed(log::format("cannot open ", path));
    const std::streamoff size = in.tellg();
    if (size < 8)
        return failed(log::format(path, " is truncated (", size,
                                  " bytes, no room for a checksum)"));
    in.seekg(0);
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
    in.read(reinterpret_cast<char *>(bytes.data()), size);
    if (!in)
        return failed(log::format("short read from ", path));

    const std::size_t payload = bytes.size() - 8;
    std::uint64_t stored = 0;
    for (int i = 0; i < 8; ++i)
        stored |= static_cast<std::uint64_t>(bytes[payload + i])
                  << (8 * i);
    if (fnv1a(bytes.data(), payload) != stored)
        return failed(log::format(
            path, " failed its checksum (truncated or corrupt)"));

    bytes.resize(payload);
    BinaryReader reader(std::move(bytes));
    for (std::size_t i = 0; i < 8; ++i)
        if (reader.u8() != static_cast<std::uint8_t>(header.magic[i]))
            return failed(
                log::format(path, " is not a smarts ", header.what));
    const std::uint32_t version = reader.u32();
    if (version != header.version)
        return failed(log::format(path, " is ", header.kind,
                                  " version ", version, "; this build ",
                                  header.verb, " version ",
                                  header.version));
    if (reader.u32() != kEndianMark)
        return failed(log::format(path, " has a bad endianness marker"));
    return reader;
}

} // namespace smarts::util
