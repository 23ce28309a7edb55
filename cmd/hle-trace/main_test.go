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

// TestHWExtRunsOnItsMachine: HLE-HWExt runs on a machine with the Chapter
// 7 extension, so its transaction counts differ from plain HLE's. Run on
// a stock machine it would be plain HLE under another label.
func TestHWExtRunsOnItsMachine(t *testing.T) {
	hle, ext := profileLine(t, "HLE"), profileLine(t, "HLE-HWExt")
	if hle == ext {
		t.Errorf("HLE-HWExt profile equals HLE's:%s", ext)
	}
}

// TestUsageErrors: an unknown mode, scheme or lock is a usage error.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-mode", "bogus"}, {"-scheme", "nope"}, {"-lock", "nope"}} {
		var out bytes.Buffer
		if code := run(args, &out); code != 2 {
			t.Errorf("%v: exit status %d, want 2", args, code)
		}
	}
}
