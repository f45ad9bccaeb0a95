// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// FaultInjection: deterministic storage-fault hooks for the durability
// tests and the chaos CI jobs.
//
// The durable-write paths (util/wal.h WAL appends, util/file_io.h atomic
// commits) consult the process-wide instance at well-defined points:
//
//   BeforeWrite   may tear a file write after N bytes (the caller observes
//                 a short write and fails, exactly as if the process had
//                 died there with the prefix on disk), or SIGKILL the
//                 process mid-write (the chaos launcher's kill-during-
//                 WRITE-phase mode — a real abrupt death, torn bytes and
//                 all), or stall it (a slow store, so a test can land a
//                 death while a background write is in flight).
//   DropCommit    skips the rename of an atomic temp+rename commit: the
//                 payload is durable under the temp name but the commit
//                 point never happens (crash between fsync and rename).
//   DropFile      deletes a freshly committed file (a lost file on the
//                 shared snapshot store).
//
// Disarmed cost is one relaxed atomic load per hook.  Arms match paths by
// substring; each arm fires on the configured occurrence and then
// disarms, so tests compose sequences deterministically.
//
// FlipBit / TruncateFile are one-shot helpers for tests that corrupt
// files after the fact (bit rot, torn tails) without modeling the writer.

#ifndef GRAPHLAB_FAULT_INJECTION_H_
#define GRAPHLAB_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "graphlab/util/status.h"

namespace graphlab {
namespace fault {

class FaultInjection {
 public:
  /// The process-wide instance every durable-write path consults.
  static FaultInjection& Instance();

  /// Disarms everything (tests call this in SetUp/TearDown).
  void Reset();

  // ------------------------------------------------------------------
  // Arms
  // ------------------------------------------------------------------

  /// Writes to the next file whose path contains `path_substr` are torn
  /// once the file reaches `byte_offset` bytes: the writer sees a short
  /// write and must fail, leaving the prefix on disk.
  void ArmTornWrite(std::string path_substr, uint64_t byte_offset);

  /// SIGKILL the process once `byte_offset` bytes of a matching file have
  /// been written.  `skip_files` matching files are allowed through
  /// first, so a launcher can let checkpoint N-1 commit and die inside
  /// checkpoint N's WRITE phase.
  void ArmKillDuringWrite(std::string path_substr, uint64_t byte_offset,
                          uint64_t skip_files = 0);

  /// The next write to a file whose path contains `path_substr` first
  /// sleeps `millis`: a slow store.  The sleep holds no lock, so other
  /// writers and the other arms proceed meanwhile.
  void ArmStallWrite(std::string path_substr, uint64_t millis);

  /// The next atomic commit of a matching path stops before the rename
  /// (payload durable under the temp name, commit point missing).
  void ArmCrashBeforeCommit(std::string path_substr);

  /// The next matching committed file is deleted right after its commit.
  void ArmMissingFile(std::string path_substr);

  // ------------------------------------------------------------------
  // Writer-side hooks (no-ops while disarmed)
  // ------------------------------------------------------------------

  /// Called before writing `n` bytes at file offset `offset` of `path`.
  /// Returns how many of those bytes may be written; < n means the write
  /// tears there.  Does not return when a kill-during-write fires, and
  /// returns late when a stall fires.
  size_t BeforeWrite(const std::string& path, uint64_t offset, size_t n);

  /// True when the commit rename of `path` must be skipped this time.
  bool DropCommit(const std::string& path);

  /// True when the freshly committed `path` should be deleted.
  bool DropFile(const std::string& path);

  bool armed() const {
    return armed_.load(std::memory_order_relaxed) != 0;
  }

  // ------------------------------------------------------------------
  // Post-hoc corruption helpers (no arming involved)
  // ------------------------------------------------------------------

  /// Flips bit `bit_index` (0 = LSB of byte 0) of the file in place.
  static Status FlipBit(const std::string& path, uint64_t bit_index);

  /// Truncates the file to `new_size` bytes (a torn tail).
  static Status TruncateFile(const std::string& path, uint64_t new_size);

 private:
  FaultInjection() = default;

  struct Arm {
    bool active = false;
    std::string substr;
    uint64_t offset = 0;
    uint64_t skip_files = 0;
    std::string current_file;     // kill arm: the matching file being counted
    bool skipping_current = false;  // current_file is in the skip budget
  };

  // armed_ counts active arms so the disarmed fast path is one relaxed
  // load; all arm state is guarded by mutex_.
  std::atomic<int> armed_{0};
  std::mutex mutex_;
  Arm torn_write_;
  Arm kill_during_write_;
  Arm stall_write_;  // offset holds the stall in milliseconds
  Arm drop_commit_;
  Arm drop_file_;
};

}  // namespace fault
}  // namespace graphlab

#endif  // GRAPHLAB_FAULT_INJECTION_H_
