package figures

import (
	"fmt"
	"strings"
	"testing"

	"hle/internal/obs"
)

// TestMeasureChecksAttribution: the runner rejects a profile whose causes
// do not sum to its abort total, one whose total disagrees with the
// engine's stamped count, and one with aborts but no engine stamp, naming
// the offending point each time.
func TestMeasureChecksAttribution(t *testing.T) {
	good := &obs.Profile{TotalAborts: 3, EngineAborts: 3, Causes: []obs.CauseCount{{Class: "conflict-data", Count: 3}}}
	cases := map[string]*obs.Profile{
		"cause sum": {TotalAborts: 3, EngineAborts: 3, Causes: []obs.CauseCount{{Class: "conflict-data", Count: 2}}},
		"engine":    {TotalAborts: 3, EngineAborts: 4, Causes: []obs.CauseCount{{Class: "conflict-data", Count: 3}}},
		"unstamped": {TotalAborts: 3, Causes: []obs.CauseCount{{Class: "conflict-data", Count: 3}}},
	}
	for what, bad := range cases {
		t.Run(what, func(t *testing.T) {
			profiles := []*obs.Profile{good, bad, good}
			name := func(i int) string { return fmt.Sprintf("pt%d", i) }
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "pt1: abort attribution broken") {
					t.Fatalf("want a panic naming pt1, got %q", msg)
				}
			}()
			measure(Options{Parallel: 2}, len(profiles), name, nil, func(i int, _ *obs.Options) (int, *obs.Profile) {
				return i, profiles[i]
			})
		})
	}
}

// TestMeasureDeliversInOrder: profiles reach the sink in declaration order
// even when later points finish first, and points that collected only for
// their own table are not delivered when the run is not profiling.
func TestMeasureDeliversInOrder(t *testing.T) {
	const n = 6
	run := func(o Options) []string {
		var got []string
		o.Parallel = n
		o.ProfileSink = func(name string, _ *obs.Profile) { got = append(got, name) }
		done := make(chan struct{})
		measure(o, n, func(i int) string { return fmt.Sprint(i) }, everyPoint,
			func(i int, prof *obs.Options) (int, *obs.Profile) {
				if i == 0 {
					<-done // point 0 finishes last
				} else if i == n-1 {
					close(done)
				}
				return i, &obs.Profile{}
			})
		return got
	}
	if got := run(Options{}); len(got) != 0 {
		t.Errorf("delivered %v without o.Profile", got)
	}
	if got := fmt.Sprint(run(Options{Profile: &obs.Options{}})); got != "[0 1 2 3 4 5]" {
		t.Errorf("delivery order %s, want [0 1 2 3 4 5]", got)
	}
}
