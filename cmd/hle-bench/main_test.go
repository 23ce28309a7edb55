package main

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestProfilesSurviveFailingRun: an erroring run still stops the CPU
// profile and writes the heap profile, because run returns its exit status
// to main instead of exiting past its deferred calls. The heap profile
// records every allocation (MemProfileRate 1), so its counts are exact.
func TestProfilesSurviveFailingRun(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	dir := t.TempDir()
	cpu, heap := filepath.Join(dir, "cpu.pb"), filepath.Join(dir, "mem.pb")
	if code := run([]string{"-fig", "no-such-figure", "-cpuprofile", cpu, "-memprofile", heap}); code != 1 {
		t.Fatalf("exit status %d, want 1", code)
	}
	if runtime.MemProfileRate != 1 {
		t.Errorf("-memprofile left MemProfileRate at %d, want 1", runtime.MemProfileRate)
	}
	for _, f := range []string{cpu, heap} {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", f)
		}
	}
}

// TestUsageErrors: a thread count outside what the locks support is
// rejected before any figure runs.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "2.1", "-threads", "0"},
		{"-fig", "2.1", "-threads", "65"},
		{"-fig", "2.1", "-profile", "bogus"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("%v: exit status %d, want 2", args, code)
		}
	}
}
