#include "graphlab/fault/injection.h"

#include <signal.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

namespace graphlab {
namespace fault {

FaultInjection& FaultInjection::Instance() {
  static FaultInjection* instance = new FaultInjection();
  return *instance;
}

void FaultInjection::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  torn_write_ = Arm{};
  kill_during_write_ = Arm{};
  stall_write_ = Arm{};
  drop_commit_ = Arm{};
  drop_file_ = Arm{};
  armed_.store(0, std::memory_order_relaxed);
}

void FaultInjection::ArmTornWrite(std::string path_substr,
                                  uint64_t byte_offset) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!torn_write_.active) armed_.fetch_add(1, std::memory_order_relaxed);
  torn_write_ = Arm{true, std::move(path_substr), byte_offset, 0, {}};
}

void FaultInjection::ArmKillDuringWrite(std::string path_substr,
                                        uint64_t byte_offset,
                                        uint64_t skip_files) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!kill_during_write_.active) {
    armed_.fetch_add(1, std::memory_order_relaxed);
  }
  kill_during_write_ =
      Arm{true, std::move(path_substr), byte_offset, skip_files, {}};
}

void FaultInjection::ArmStallWrite(std::string path_substr,
                                   uint64_t millis) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!stall_write_.active) armed_.fetch_add(1, std::memory_order_relaxed);
  stall_write_ = Arm{true, std::move(path_substr), millis, 0, {}};
}

void FaultInjection::ArmCrashBeforeCommit(std::string path_substr) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!drop_commit_.active) armed_.fetch_add(1, std::memory_order_relaxed);
  drop_commit_ = Arm{true, std::move(path_substr), 0, 0, {}};
}

void FaultInjection::ArmMissingFile(std::string path_substr) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!drop_file_.active) armed_.fetch_add(1, std::memory_order_relaxed);
  drop_file_ = Arm{true, std::move(path_substr), 0, 0, {}};
}

size_t FaultInjection::BeforeWrite(const std::string& path, uint64_t offset,
                                   size_t n) {
  if (!armed()) return n;
  uint64_t stall_ms = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stall_write_.active &&
        path.find(stall_write_.substr) != std::string::npos) {
      stall_ms = stall_write_.offset;
      stall_write_ = Arm{};
      armed_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  if (stall_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (kill_during_write_.active &&
      path.find(kill_during_write_.substr) != std::string::npos) {
    Arm& k = kill_during_write_;
    if (k.current_file != path) {
      // A new matching file: let it through if skip budget remains,
      // otherwise this is the file whose write we die inside.
      k.current_file = path;
      k.skipping_current = k.skip_files > 0;
      if (k.skipping_current) k.skip_files--;
    }
    if (!k.skipping_current && offset + n >= k.offset) {
      std::fprintf(stderr,
                   "[fault-injection] SIGKILL during write of %s at %llu\n",
                   path.c_str(),
                   static_cast<unsigned long long>(k.offset));
      std::fflush(stderr);
      // Die with a torn file: the bytes before the kill point land first.
      // (The caller's write of the allowed prefix never happens — that is
      // fine; a kill point mid-buffer is indistinguishable from one a few
      // bytes earlier.)
      ::raise(SIGKILL);
    }
  }
  if (torn_write_.active &&
      path.find(torn_write_.substr) != std::string::npos) {
    if (offset + n >= torn_write_.offset) {
      const uint64_t allowed =
          torn_write_.offset > offset ? torn_write_.offset - offset : 0;
      torn_write_ = Arm{};
      armed_.fetch_sub(1, std::memory_order_relaxed);
      return static_cast<size_t>(allowed);
    }
  }
  return n;
}

bool FaultInjection::DropCommit(const std::string& path) {
  if (!armed()) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  if (drop_commit_.active &&
      path.find(drop_commit_.substr) != std::string::npos) {
    drop_commit_ = Arm{};
    armed_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool FaultInjection::DropFile(const std::string& path) {
  if (!armed()) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  if (drop_file_.active &&
      path.find(drop_file_.substr) != std::string::npos) {
    drop_file_ = Arm{};
    armed_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

Status FaultInjection::FlipBit(const std::string& path, uint64_t bit_index) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  if (!f) return Status::IOError("cannot open for bit flip: " + path);
  const uint64_t byte = bit_index / 8;
  f.seekg(static_cast<std::streamoff>(byte));
  char c = 0;
  if (!f.get(c)) return Status::IOError("bit flip past EOF: " + path);
  c = static_cast<char>(c ^ (1u << (bit_index % 8)));
  f.seekp(static_cast<std::streamoff>(byte));
  f.put(c);
  f.flush();
  if (!f) return Status::IOError("bit flip write failed: " + path);
  return Status::OK();
}

Status FaultInjection::TruncateFile(const std::string& path,
                                    uint64_t new_size) {
  std::error_code ec;
  std::filesystem::resize_file(path, new_size, ec);
  if (ec) {
    return Status::IOError("truncate " + path + ": " + ec.message());
  }
  return Status::OK();
}

}  // namespace fault
}  // namespace graphlab
