// Supplemental — the labeled filesystem: per-op costs with labels on
// the path.
#include <benchmark/benchmark.h>

#include "os/filesystem.h"
#include "os/kernel.h"

namespace {

using w5::difc::Label;
using w5::difc::LabelState;
using w5::difc::ObjectLabels;
using w5::difc::plus;
using w5::difc::Tag;
using w5::os::FileSystem;
using w5::os::Kernel;
using w5::os::kKernelPid;

struct FsFixture {
  Kernel kernel;
  FileSystem fs{kernel};
  Tag secret;
  w5::os::Pid app;

  explicit FsFixture(std::size_t file_bytes) {
    secret = kernel.create_tag(kKernelPid, "sec(u)",
                               w5::difc::TagPurpose::kSecrecy).value();
    kernel.add_global_capability(plus(secret));
    (void)fs.mkdir(kKernelPid, "/users", {});
    (void)fs.create(kKernelPid, "/users/data.txt",
                    ObjectLabels{Label{secret}, {}},
                    std::string(file_bytes, 'x'));
    app = kernel.spawn_trusted("app", LabelState({}, {}, {}));
  }
};

void BM_FsReadTrusted(benchmark::State& state) {
  FsFixture fx(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.fs.read(kKernelPid, "/users/data.txt"));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FsReadTrusted)->Arg(256)->Arg(4096)->Arg(65536);

void BM_FsReadWithAutoRaise(benchmark::State& state) {
  FsFixture fx(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.fs.read(fx.app, "/users/data.txt", w5::os::AutoRaise::kYes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FsReadWithAutoRaise)->Arg(256)->Arg(4096)->Arg(65536);

void BM_FsWrite(benchmark::State& state) {
  FsFixture fx(4096);
  const std::string payload(4096, 'y');
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.fs.write(kKernelPid, "/users/data.txt", payload).ok());
  }
}
BENCHMARK(BM_FsWrite);

void BM_FsStatAndList(benchmark::State& state) {
  FsFixture fx(64);
  for (int i = 0; i < 100; ++i) {
    (void)fx.fs.create(kKernelPid, "/users/f" + std::to_string(i), {}, "x");
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.fs.stat(fx.app, "/users/data.txt"));
    benchmark::DoNotOptimize(fx.fs.list(fx.app, "/users"));
  }
}
BENCHMARK(BM_FsStatAndList);

}  // namespace
