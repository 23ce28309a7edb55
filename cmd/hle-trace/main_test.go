package main

import (
	"bytes"
	"strings"
	"testing"
)

// profileLine runs a heatmap point and returns its "profile ..." line.
func profileLine(t *testing.T, scheme string) string {
	t.Helper()
	var out bytes.Buffer
	if code := run([]string{"-mode", "heatmap", "-budget", "200000", "-scheme", scheme}, &out); code != 0 {
		t.Fatalf("%s: exit status %d", scheme, code)
	}
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(l, "profile ") {
			return strings.TrimPrefix(l, "profile "+scheme+":")
		}
	}
	t.Fatalf("%s: no profile line in\n%s", scheme, out.String())
	return ""
}

// TestHWExtRunsOnItsMachine: HLE-HWExt's Setup selects the Chapter 7
// extension on every thread, so its transaction counts differ from plain
// HLE's on the same machine. Without it, it would be plain HLE under
// another label.
func TestHWExtRunsOnItsMachine(t *testing.T) {
	hle, ext := profileLine(t, "HLE"), profileLine(t, "HLE-HWExt")
	if hle == ext {
		t.Errorf("HLE-HWExt profile equals HLE's:%s", ext)
	}
}

// TestUsageErrors: an unknown mode, scheme or lock, or a numeric flag out
// of range, is a usage error.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "bogus"}, {"-scheme", "nope"}, {"-lock", "nope"},
		{"-threads", "0"}, {"-mode", "summary", "-threads", "65"},
		{"-mode", "summary", "-size", "0"},
		{"-mode", "summary", "-updates", "150"}, {"-mode", "summary", "-updates", "-1"},
		{"-mode", "summary", "-budget", "0"},
		{"-events", "-1"},
	} {
		var out bytes.Buffer
		if code := run(args, &out); code != 2 {
			t.Errorf("%v: exit status %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: a usage error printed a report:\n%s", args, out.String())
		}
	}
}

// TestStalledPointStops: a point that stops making progress (NoLock lets
// the threads corrupt the tree) is stopped by the watchdog and exits 1
// instead of hanging.
func TestStalledPointStops(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-mode", "summary", "-scheme", "NoLock"}, &out); code != 1 {
		t.Errorf("exit status %d, want 1", code)
	}
}

// TestTraceShowsLifecycle: the trace reads every engine event from the
// machine's ring, so transaction commits and the aborts the two threads'
// conflicts cause appear next to the memory traffic.
func TestTraceShowsLifecycle(t *testing.T) {
	for _, scheme := range []string{"HLE", "RTM-LE"} {
		var out bytes.Buffer
		if code := run([]string{"-scheme", scheme, "-events", "1000000"}, &out); code != 0 {
			t.Fatalf("%s: exit status %d", scheme, code)
		}
		kinds := map[string]int{}
		for _, l := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(l); len(f) > 1 && strings.HasPrefix(f[0], "[T") {
				kinds[f[1]]++
			}
		}
		if kinds["abort"] == 0 || kinds["commit"] == 0 {
			t.Errorf("%s: trace has %d abort and %d commit lines, want at least one of each:\n%s",
				scheme, kinds["abort"], kinds["commit"], out.String())
		}
	}
}
