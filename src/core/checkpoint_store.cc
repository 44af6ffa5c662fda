#include "core/checkpoint_store.hh"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "util/logging.hh"

namespace smarts::core {

namespace fs = std::filesystem;

namespace {

/** Service subdirectories below the store root. */
constexpr const char *kPinsDir = ".pins";
constexpr const char *kTrashDir = ".trash";

/** Per-process uniquifier for internal pin owners + trash names. */
std::string
uniqueTag()
{
    static std::atomic<unsigned> serial{0};
    return log::format(::getpid(), ".",
                             serial.fetch_add(1));
}

/** Entry rel-path flattened to one marker-safe filename piece. */
std::string
stemOf(const std::string &rel)
{
    std::string stem = rel;
    for (char &c : stem)
        if (c == '/')
            c = '~';
    return stem;
}

} // namespace

void
StoreLease::release()
{
    if (markerPath_.empty())
        return;
    std::error_code ec;
    fs::remove(markerPath_, ec);
    markerPath_.clear();
    entryPath_.clear();
}

CheckpointStore::CheckpointStore(std::string root,
                                 StoreOptions options)
    : root_(std::move(root)), options_(options)
{
    if (root_.empty())
        SMARTS_FATAL("checkpoint store needs a root directory");
}

std::string
CheckpointStore::pathFor(const LibraryKey &key) const
{
    return (fs::path(root_) / key.dirName() / key.fileName())
        .string();
}

std::string
CheckpointStore::livePointPathFor(const LibraryKey &key) const
{
    return (fs::path(root_) / key.dirName() /
            key.livePointFileName())
        .string();
}

std::string
CheckpointStore::relFor(const LibraryKey &key, bool livePoints) const
{
    return key.dirName() + "/" +
           (livePoints ? key.livePointFileName() : key.fileName());
}

std::string
CheckpointStore::entryPathFor(const LibraryKey &key,
                              bool livePoints) const
{
    return livePoints ? livePointPathFor(key) : pathFor(key);
}

std::string
CheckpointStore::indexPath() const
{
    return (fs::path(root_) / "store-index").string();
}

StoreIndex &
CheckpointStore::indexLocked() const
{
    if (index_)
        return *index_;

    std::error_code ec;
    fs::create_directories(root_, ec);

    // Sweep trash a crashed GC left behind: those files were
    // renamed off their entry paths, so nothing can load them.
    const fs::path trash = fs::path(root_) / kTrashDir;
    if (fs::exists(trash, ec))
        for (const fs::directory_entry &e :
             fs::directory_iterator(trash, ec))
            fs::remove(e.path(), ec);

    std::string error;
    if (std::optional<StoreIndex> loaded =
            StoreIndex::load(indexPath(), &error)) {
        index_ = std::move(*loaded);
        if (index_->wantsCompaction())
            index_->saveSnapshot(indexPath());
        return *index_;
    }

    const bool hadJournal = fs::exists(indexPath(), ec);
    if (hadJournal)
        SMARTS_WARN("checkpoint store: ", error,
                    "; rebuilding the index by directory scan");
    index_ = StoreIndex::rebuild(root_);
    if (hadJournal || index_->entryCount() > 0) {
        rebuilds_.fetch_add(1, std::memory_order_relaxed);
        std::string snapError;
        if (!index_->saveSnapshot(indexPath(), &snapError))
            SMARTS_WARN("checkpoint store: cannot snapshot rebuilt "
                        "index: ",
                        snapError);
    }
    return *index_;
}

bool
CheckpointStore::entryExists(const std::string &rel) const
{
    std::lock_guard<std::mutex> lock(mu_);
    StoreIndex &index = indexLocked();
    if (index.contains(rel))
        return true;
    // Index miss: ONE disk probe — another process may have
    // published since our journal view. Finding it installs the
    // entry so the next check is free; this is the only place a
    // lookup stats the world.
    statCalls_.fetch_add(1, std::memory_order_relaxed);
    std::error_code ec;
    const std::uint64_t bytes =
        fs::file_size(fs::path(root_) / rel, ec);
    if (ec)
        return false;
    index.noteAdd(rel, bytes);
    return true;
}

void
CheckpointStore::ensureDirFor(const std::string &path) const
{
    const fs::path parent = fs::path(path).parent_path();
    if (parent.empty())
        return;
    std::lock_guard<std::mutex> lock(mu_);
    if (!ensuredDirs_.insert(parent.string()).second)
        return;
    std::error_code ec;
    fs::create_directories(parent, ec);
    dirEnsures_.fetch_add(1, std::memory_order_relaxed);
}

void
CheckpointStore::notePublish(const std::string &rel,
                             const std::string &path) const
{
    std::error_code ec;
    const std::uint64_t bytes = fs::file_size(path, ec);
    std::lock_guard<std::mutex> lock(mu_);
    StoreIndex &index = indexLocked();
    const std::uint64_t atime = index.noteAdd(rel, bytes);
    std::string error;
    if (!StoreIndex::appendRecord(indexPath(), StoreIndex::Op::Add,
                                  rel, bytes, atime, &error))
        SMARTS_WARN("checkpoint store: journal append failed: ",
                    error);
    saves_.fetch_add(1, std::memory_order_relaxed);
    if (options_.budgetBytes)
        gcLocked(nullptr);
    if (index.wantsCompaction())
        index.saveSnapshot(indexPath());
}

std::uint64_t
CheckpointStore::noteAccess(const std::string &rel) const
{
    std::lock_guard<std::mutex> lock(mu_);
    StoreIndex &index = indexLocked();
    const std::uint64_t atime = index.noteTouch(rel);
    if (atime != 0) {
        touches_.fetch_add(1, std::memory_order_relaxed);
        StoreIndex::appendRecord(indexPath(), StoreIndex::Op::Touch,
                                 rel, 0, atime);
    }
    return atime;
}

void
CheckpointStore::noteVanished(const std::string &rel) const
{
    std::lock_guard<std::mutex> lock(mu_);
    StoreIndex &index = indexLocked();
    if (!index.contains(rel))
        return;
    index.noteRemove(rel);
    StoreIndex::appendRecord(indexPath(), StoreIndex::Op::Remove,
                             rel, 0, 0);
}

std::string
CheckpointStore::markerFor(const std::string &rel,
                           const std::string &owner) const
{
    return (fs::path(root_) / kPinsDir /
            (stemOf(rel) + "." + owner + ".pin"))
        .string();
}

bool
CheckpointStore::isPinned(const std::string &rel) const
{
    const std::string prefix = stemOf(rel) + ".";
    std::error_code ec;
    for (const fs::directory_entry &e : fs::directory_iterator(
             fs::path(root_) / kPinsDir, ec)) {
        const std::string name = e.path().filename().string();
        if (name.size() > prefix.size() + 4 &&
            name.compare(0, prefix.size(), prefix) == 0 &&
            name.compare(name.size() - 4, 4, ".pin") == 0)
            return true;
    }
    return false;
}

std::optional<StoreLease>
CheckpointStore::pin(const LibraryKey &key, bool livePoints,
                     const std::string &owner) const
{
    const std::string rel = relFor(key, livePoints);
    const std::string path = entryPathFor(key, livePoints);
    const std::string marker = markerFor(rel, owner);
    ensureDirFor(marker);

    // Write a private temp, then create_hard_link — an atomic
    // create-exclusive, so exactly one pin per (entry, owner) wins.
    const std::string tmp = marker + ".tmp." + uniqueTag();
    {
        std::ofstream out(tmp, std::ios::trunc);
        out << owner << "\n";
        if (!out)
            return std::nullopt;
    }
    std::error_code ec;
    fs::create_hard_link(tmp, marker, ec);
    std::error_code rmEc;
    fs::remove(tmp, rmEc);
    if (ec)
        return std::nullopt; // already held by this owner.

    // Marker first, THEN verify the entry file: GC checks markers
    // after its rename, so one of us is guaranteed to see the
    // other. An entry that is gone (or mid-eviction) refuses the
    // lease rather than protecting nothing.
    if (!fs::exists(path, ec) || ec) {
        fs::remove(marker, rmEc);
        return std::nullopt;
    }
    return StoreLease(marker, path);
}

std::uint64_t
CheckpointStore::touch(const LibraryKey &key, bool livePoints) const
{
    const std::string rel = relFor(key, livePoints);
    return entryExists(rel) ? noteAccess(rel) : 0;
}

std::size_t
CheckpointStore::gc(std::string *error) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return gcLocked(error);
}

std::size_t
CheckpointStore::gcLocked(std::string *error) const
{
    StoreIndex &index = indexLocked();
    if (options_.budgetBytes == 0 ||
        index.totalBytes() <= options_.budgetBytes)
        return 0;
    gcRuns_.fetch_add(1, std::memory_order_relaxed);

    std::error_code ec;
    const fs::path trashDir = fs::path(root_) / kTrashDir;
    fs::create_directories(trashDir, ec);

    std::size_t evicted = 0;
    for (const auto &[rel, entry] : index.lruOrder()) {
        if (index.totalBytes() <= options_.budgetBytes)
            break;
        if (isPinned(rel)) {
            pinSkips_.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        const fs::path src = fs::path(root_) / rel;
        const fs::path trash =
            trashDir / (stemOf(rel) + "." + uniqueTag());
        fs::rename(src, trash, ec);
        if (ec) {
            // Already gone (another process evicted, or the file
            // never landed): drop the stale index entry.
            index.noteRemove(rel);
            StoreIndex::appendRecord(indexPath(),
                                     StoreIndex::Op::Remove, rel, 0,
                                     0);
            continue;
        }
        if (isPinned(rel)) {
            // A pin landed between our check and the rename. The
            // pinner's verify may have already seen the entry
            // missing (it refuses the lease then), but if it holds
            // a lease the entry MUST survive: put it back.
            std::error_code backEc;
            fs::rename(trash, src, backEc);
            if (backEc && error)
                *error = log::format(
                    "cannot restore pinned ", rel, ": ",
                    backEc.message());
            pinSkips_.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        fs::remove(trash, ec);
        ++evicted;
        evictions_.fetch_add(1, std::memory_order_relaxed);
        bytesEvicted_.fetch_add(entry.bytes,
                                std::memory_order_relaxed);
        index.noteRemove(rel);
        StoreIndex::appendRecord(indexPath(),
                                 StoreIndex::Op::Remove, rel, 0, 0);
    }
    return evicted;
}

std::uint64_t
CheckpointStore::totalBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return indexLocked().totalBytes();
}

StoreCounters
CheckpointStore::counters() const
{
    StoreCounters c;
    c.hits = hits_.load(std::memory_order_relaxed);
    c.misses = misses_.load(std::memory_order_relaxed);
    c.refusals = refusals_.load(std::memory_order_relaxed);
    c.saves = saves_.load(std::memory_order_relaxed);
    c.touches = touches_.load(std::memory_order_relaxed);
    c.evictions = evictions_.load(std::memory_order_relaxed);
    c.bytesEvicted = bytesEvicted_.load(std::memory_order_relaxed);
    c.statCalls = statCalls_.load(std::memory_order_relaxed);
    c.dirEnsures = dirEnsures_.load(std::memory_order_relaxed);
    c.pinSkips = pinSkips_.load(std::memory_order_relaxed);
    c.rebuilds = rebuilds_.load(std::memory_order_relaxed);
    c.gcRuns = gcRuns_.load(std::memory_order_relaxed);
    return c;
}

bool
CheckpointStore::contains(const LibraryKey &key) const
{
    return entryExists(relFor(key, /*livePoints=*/false));
}

bool
CheckpointStore::loadPinned(const LibraryKey &key, bool livePoints,
                            const EntryIo &loader,
                            std::string *error) const
{
    if (error)
        error->clear();
    const std::string rel = relFor(key, livePoints);
    const std::string path = entryPathFor(key, livePoints);
    if (!entryExists(rel)) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false; // plain miss, no diagnostic.
    }

    // Pin while reading so concurrent GC leaves the bytes alone; a
    // refused lease means the entry vanished under us — that is a
    // clean miss, not a refusal.
    std::optional<StoreLease> lease =
        pin(key, livePoints, "ld" + uniqueTag());
    if (lease && loader(path, error)) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        noteAccess(rel);
        return true;
    }
    std::error_code ec;
    if (lease && fs::exists(path, ec)) {
        refusals_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    // Gone before the pin, or evicted between the pin race and the
    // open: a clean miss.
    if (error)
        error->clear();
    noteVanished(rel);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
}

bool
CheckpointStore::publish(const LibraryKey &key, bool livePoints,
                         const EntryIo &writer,
                         std::string *error) const
{
    const std::string path = entryPathFor(key, livePoints);
    ensureDirFor(path);
    if (!writer(path, error))
        return false;
    notePublish(relFor(key, livePoints), path);
    return true;
}

std::optional<LivePointLibrary>
CheckpointStore::tryLoadLivePoints(const LibraryKey &key,
                                   std::string *error) const
{
    return loadAs<LivePointLibrary>(key, /*livePoints=*/true, error);
}

bool
CheckpointStore::saveLivePoints(const LivePointLibrary &library,
                                const LibraryKey &key,
                                std::string *error) const
{
    return saveAs(key, /*livePoints=*/true, library, error);
}

template <typename Library, typename Stored, typename Capture>
std::size_t
CheckpointStore::ensureWith(
    const workloads::BenchmarkSpec &spec,
    const std::vector<uarch::MachineConfig> &configs,
    const SamplingConfig &sampling, bool livePoints,
    const Stored &stored, const Capture &capture) const
{
    std::vector<uarch::MachineConfig> misses;
    std::vector<std::uint64_t> geometries;
    for (const uarch::MachineConfig &config : configs) {
        const LibraryKey key = LibraryKey::of(spec, config, sampling);
        if (stored(key) || std::find(geometries.begin(), geometries.end(),
                                     key.geometryHash) != geometries.end())
            continue;
        misses.push_back(config);
        geometries.push_back(key.geometryHash);
    }
    if (misses.empty())
        return 0;

    MultiSession session(spec, misses);
    const std::vector<Library> libraries = capture(session);
    for (std::size_t i = 0; i < libraries.size(); ++i) {
        const LibraryKey key = LibraryKey::of(spec, misses[i], sampling);
        std::string error;
        if (!saveAs(key, livePoints, libraries[i], &error))
            SMARTS_FATAL("checkpoint store: cannot save ",
                         entryPathFor(key, livePoints), ": ", error);
    }
    return libraries.size();
}

std::size_t
CheckpointStore::ensure(
    const workloads::BenchmarkSpec &spec,
    const std::vector<uarch::MachineConfig> &configs,
    const SamplingConfig &sampling, std::uint64_t streamLength,
    std::size_t shards) const
{
    // "Present" means a library that actually LOADS — a file that
    // exists but refuses (stale version, corruption) is a miss to
    // recapture, or ensure() would report configs as stored that
    // nothing can resume.
    auto stored = [&](const LibraryKey &key) {
        std::string error;
        if (tryLoad(key, &error))
            return true;
        if (!error.empty())
            SMARTS_WARN("checkpoint store: recapturing (", error, ")");
        return false;
    };
    const std::vector<ShardSpec> plan =
        CheckpointLibrary::planShards(sampling, streamLength, shards);
    return ensureWith<CheckpointLibrary>(
        spec, configs, sampling, /*livePoints=*/false, stored,
        [&](MultiSession &session) {
            return CheckpointLibrary::buildMulti(session, sampling, plan);
        });
}

std::size_t
CheckpointStore::ensureLivePoints(
    const workloads::BenchmarkSpec &spec,
    const std::vector<uarch::MachineConfig> &configs,
    const SamplingConfig &sampling) const
{
    auto stored = [&](const LibraryKey &key) {
        std::string error;
        if (tryLoadLivePoints(key, &error))
            return true;
        if (!error.empty())
            SMARTS_WARN("checkpoint store: recapturing live-points (",
                        error, ")");
        return false;
    };
    return ensureWith<LivePointLibrary>(
        spec, configs, sampling, /*livePoints=*/true, stored,
        [&](MultiSession &session) {
            return LivePointLibrary::buildMulti(session, sampling);
        });
}

} // namespace smarts::core
