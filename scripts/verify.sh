#!/bin/sh
# Tier-1 verification: build, vet, full test suite, then the race detector
# over the host-parallel machinery (the pool, machine checkpoint/fork, the
# list of released machines that forks recycle, and allocator free lists
# are the only code that runs on concurrent host goroutines). Explicit -timeout: the liveness watchdogs turn simulated
# hangs into structured failures, so a genuinely hung test is a bug worth
# a bounded wait, not go test's default 10 minutes per package.
set -eux

go build ./...
go vet ./...
go test -timeout 300s ./...
# Race detector over every package the parallel runner shares across host
# goroutines: the pool, machine fork/checkpoint, tsx's list of released
# machines (every point's FromCheckpoint takes from it and its Release
# hands back to it) and allocator free lists;
# internal/sim, whose iter.Pull switches are all that orders one simulated
# proc's accesses before the next proc's; the profiler, one collector per
# point, and the adaptive controller riding its windowed feed; and the
# sharded store and traffic generator, whose per-point store construction
# (Bind after a checkpoint fork) and Go-side tables are shared by every
# point of a template.
go test -race -count=1 -timeout 300s ./internal/harness/... ./internal/tsx/... ./internal/mem/... ./internal/sim \
	./internal/obs ./internal/adapt ./internal/shard ./internal/traffic
# Procs hand the token to each other directly, each parking in the Pull of
# the goroutine it resumes, so which Pull a pooled coroutine sits in
# depends on the order of earlier handoffs, across concurrent Runs too. A
# bug there (a worker pooled before it has parked, a Pull resumed from the
# wrong side) shows only under some orders: repeat the handoff tests.
go test -race -count=20 -timeout 300s -run 'Handoff|Switch|Goexit|HookPanic|NoGoroutines|StopBeforeStart|CrossRunner' ./internal/sim
# The explorer fans its frontier across host workers; run its suite under
# the race detector too, but -short (the quick battery alone — the race
# detector is ~10x, so the deeper two-op configurations stay in plain mode).
go test -race -short -count=1 -timeout 600s ./internal/explore
# Capped-depth model-checking smoke: every scheme x sweep lock at two
# threads x one op with a small replay budget — under a minute, and it
# exercises the whole replay/branch/check loop through the CLI entry point.
# Run it chained (replays resume from banked checkpoints) and from scratch
# (-chain -1: every node replays from the start); the two must print the
# same output. Run it once more on one worker: replays run on per-worker
# rigs that keep their machine, locks and scheme and reset all three in
# place, and which rig serves a replay depends on worker timing, so state
# leaking from one replay into the next — a lock value not copied back, a
# scheme statistic not zeroed — shows up as output that changes with
# -parallel. This diff is the rigs' leak detector.
explore_out=$(mktemp -d)
trap 'rm -rf "$explore_out"' EXIT
go build -o "$explore_out/hle-bench" ./cmd/hle-bench
"$explore_out/hle-bench" -explore -quick -parallel 2 > "$explore_out/chained.txt"
"$explore_out/hle-bench" -explore -quick -parallel 2 -chain -1 > "$explore_out/scratch.txt"
cmp "$explore_out/chained.txt" "$explore_out/scratch.txt"
"$explore_out/hle-bench" -explore -quick -parallel 1 > "$explore_out/serial.txt"
cmp "$explore_out/chained.txt" "$explore_out/serial.txt"
# Lazy lock subscription under the race detector: the ext-lazy sweep fans
# per-point machines running the lazy commit pipeline (the one tsx commit
# path that is NOT atomic — it yields mid-commit) across host workers, and
# the chaos differential soaks eager and fixed-lazy subscription over
# identically filled trees (same seed), each measured on a fork that
# recycles a released machine. The naive-hazard reproductions themselves
# already run under -race via the explore suite above.
# FuzzLazySubscription's corpus replay (including the fuzzer-found
# duplicate-update witness) rides the lazy test filter in internal/core.
go test -race -count=1 -timeout 300s -run 'TestExtLazyCapacityAsymmetry' ./internal/figures
go test -race -count=1 -timeout 300s -run 'Lazy' -short ./internal/core ./internal/chaos
# The host-time benchmark is its own module, so the root ./... never builds
# it; vet and test it here so internal API edits that break it fail fast.
(cd bench && go vet ./... && go test -count=1 ./...)
