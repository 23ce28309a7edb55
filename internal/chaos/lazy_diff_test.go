package chaos

import (
	"fmt"
	"reflect"
	"testing"

	"hle/internal/harness"
)

// lazyPairs are the eager/fixed-lazy scheme pairs the differential soak
// compares. The lazy member of each pair is the FIXED pipeline (commit-time
// lock check before the drain, commit-window abort) — the naive variants are
// unsafe by construction and live only inside internal/explore.
var lazyPairs = [][2]string{
	{"HLE", "HLE-lazy"},
	{"RTM-LE", "RTM-LE-lazy"},
}

// fingerprint renders a soak result to a stable string. Two runs with the
// same fingerprint executed the same logical outcome: op count, fault
// schedule, delivered-fault counters, watchdog verdict, and serializability
// verdict all match.
func fingerprint(r SoakResult) string {
	return fmt.Sprintf("%+v", r)
}

// TestLazyDifferentialSoak is the eager-vs-fixed-lazy differential: for each
// scheme pair, fill the SAME tree (same seed, and lazy subscription needs no
// machine flags, so the fills are identical) and soak both subscription
// modes under the identical fault schedule. Both must reach the identical
// verdict — survived, serializable, every operation completed — proving the
// fixed lazy pipeline is observationally as safe as eager subscription under
// chaos, not just under the model checker's 2-thread exhaustion. Each mode's
// run must also be individually deterministic: replaying the spec reproduces
// the result (including injection counters) byte for byte, so a future
// regression in the lazy commit pipeline shows up as a fingerprint diff, not
// a flake.
func TestLazyDifferentialSoak(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 2
	}
	for _, pair := range lazyPairs {
		for _, lk := range soakLocks {
			for s := 1; s <= seeds; s++ {
				eagerSpec := SoakSpec{
					Scheme: harness.SchemeSpec{Scheme: pair[0], Lock: lk},
					Seed:   int64(s),
				}
				lazySpec := SoakSpec{
					Scheme: harness.SchemeSpec{Scheme: pair[1], Lock: lk},
					Seed:   int64(s),
				}
				eager := RunSoak(eagerSpec)
				lazy := RunSoak(lazySpec)

				name := fmt.Sprintf("%s vs %s / %s seed %d", pair[0], pair[1], lk, s)
				for _, m := range []struct {
					mode string
					res  SoakResult
				}{{pair[0], eager}, {pair[1], lazy}} {
					if m.res.Failure != nil {
						t.Errorf("%s: %s watchdog trip: %v\n%s",
							name, m.mode, m.res.Failure, m.res.Failure.Dump())
					}
					if m.res.CheckErr != nil {
						t.Errorf("%s: %s not serializable: %v", name, m.mode, m.res.CheckErr)
					}
				}
				if eager.Ops != lazy.Ops {
					t.Errorf("%s: verdicts differ: eager completed %d ops, lazy %d",
						name, eager.Ops, lazy.Ops)
				}
				// Same seed, same drawn schedule: the modes faced identical
				// adversity, so the comparison is a true differential.
				if !reflect.DeepEqual(eager.Schedule, lazy.Schedule) {
					t.Errorf("%s: fault schedules diverged:\neager: %v\nlazy:  %v",
						name, eager.Schedule, lazy.Schedule)
				}

				// Fingerprints: each mode replays to an identical result.
				if fp, fp2 := fingerprint(eager), fingerprint(RunSoak(eagerSpec)); fp != fp2 {
					t.Errorf("%s: eager fingerprint unstable:\n%s\n%s", name, fp, fp2)
				}
				if fp, fp2 := fingerprint(lazy), fingerprint(RunSoak(lazySpec)); fp != fp2 {
					t.Errorf("%s: lazy fingerprint unstable:\n%s\n%s", name, fp, fp2)
				}
			}
		}
	}
}
