package harness_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"testing"

	"hle/internal/adapt"
	"hle/internal/harness"
	"hle/internal/obs"
	"hle/internal/tsx"
)

// printSchemeFingerprints makes TestGoldenSchemeFingerprint print the
// values it computes instead of asserting, for regenerating the constants
// after an intentional change to a scheme's behaviour:
//
//	go test ./internal/harness -run TestGoldenSchemeFingerprint -harness.printfingerprints -v
var printSchemeFingerprints = flag.Bool("harness.printfingerprints", false, "print scheme fingerprints instead of asserting")

// goldenSchemes pins every scheme's retry loop, keyed "Scheme/Lock" plus
// "/tight" for the small-write-set machine. The
// engine goldens (internal/sim, internal/tsx) fix the machine underneath;
// these fix what each scheme does with it: when it speculates, how it
// recovers from an abort, when it serializes and for how long.
var goldenSchemes = map[string]uint64{
	"Adaptive-from-serial/MCS":        0xdc7fc28a860465e0,
	"Adaptive-from-serial/MCS/tight":  0x325d699e335a893d,
	"Adaptive-from-serial/TTAS":       0xb284b02b32711220,
	"Adaptive-from-serial/TTAS/tight": 0xa0cb8234dff2c562,
	"Adaptive/MCS":                    0x70be3a0ee7fc6e62,
	"Adaptive/MCS/tight":              0x94f8329175d0ac43,
	"Adaptive/TTAS":                   0x268b4edc5a00c9b8,
	"Adaptive/TTAS/tight":             0x4cfe042816083725,
	"HLE-HWExt/MCS":                   0x36d1cb6aa0f1aaf6,
	"HLE-HWExt/MCS/tight":             0x35ada095fcd0e039,
	"HLE-HWExt/TTAS":                  0x60334b738ab37ac7,
	"HLE-HWExt/TTAS/tight":            0xd826c32a4a476a42,
	"HLE-SCM-ideal/MCS":               0xef4ac1f85f41d7af,
	"HLE-SCM-ideal/MCS/tight":         0xfc2d59944a560a14,
	"HLE-SCM-ideal/TTAS":              0x308ff33409cb2ab5,
	"HLE-SCM-ideal/TTAS/tight":        0xca2ae46312cf9496,
	"HLE-SCM-multi/MCS":               0x6bc996505ba9f0a8,
	"HLE-SCM-multi/MCS/tight":         0x2c7c589df23cd3c2,
	"HLE-SCM-multi/TTAS":              0x9e966dd68cd2532f,
	"HLE-SCM-multi/TTAS/tight":        0x56055fdc116cc2b3,
	"HLE-SCM/MCS":                     0x40e08689fd01a53a,
	"HLE-SCM/MCS/tight":               0xc3675d230aaa0028,
	"HLE-SCM/TTAS":                    0x9cd73035ce401d51,
	"HLE-SCM/TTAS/tight":              0x880119953049fe2d,
	"HLE-lazy-naive/MCS":              0xb2ac45c5bc264edc,
	"HLE-lazy-naive/MCS/tight":        0x43aa940791b61511,
	"HLE-lazy-naive/TTAS":             0x2286f1301886c17a,
	"HLE-lazy-naive/TTAS/tight":       0x48eb3cb36dbc10f1,
	"HLE-lazy/MCS":                    0x814598b2591591ed,
	"HLE-lazy/MCS/tight":              0x1326d0ed4bd1f44c,
	"HLE-lazy/TTAS":                   0xc0d2c65857aa602b,
	"HLE-lazy/TTAS/tight":             0xdc57d786b25d346b,
	"HLE/MCS":                         0x3b725078eb1289ed,
	"HLE/MCS/tight":                   0xd9109084101839ec,
	"HLE/TTAS":                        0x26e5f0f5cfffd2bd,
	"HLE/TTAS/tight":                  0x79ad25299bc5b7bb,
	"Opt-SLR-SCM/MCS":                 0x92e869a2b2d8f37b,
	"Opt-SLR-SCM/MCS/tight":           0xe503bdd7bbbaae25,
	"Opt-SLR-SCM/TTAS":                0x0bfbbda24d02b03a,
	"Opt-SLR-SCM/TTAS/tight":          0x434c2e00726f64ed,
	"Opt-SLR/MCS":                     0x924b9f70f9f77c29,
	"Opt-SLR/MCS/tight":               0x3e10592a40db9705,
	"Opt-SLR/TTAS":                    0xc91cd1166a1f5c98,
	"Opt-SLR/TTAS/tight":              0x3ed55d2174fcd015,
	"Pes-SLR/MCS":                     0xe2f570acaf9958ad,
	"Pes-SLR/MCS/tight":               0x262d69ad206f32c8,
	"Pes-SLR/TTAS":                    0x4096cea6c2a59d12,
	"Pes-SLR/TTAS/tight":              0x1e23491671b7183c,
	"RTM-LE-lazy-naive/MCS":           0x4b42a76aacec5cb7,
	"RTM-LE-lazy-naive/MCS/tight":     0x5edbbb90adfcf3f5,
	"RTM-LE-lazy-naive/TTAS":          0xbf4bf02f929d88cb,
	"RTM-LE-lazy-naive/TTAS/tight":    0x271a5090a03218b3,
	"RTM-LE-lazy/MCS":                 0x0de1802ff4562af6,
	"RTM-LE-lazy/MCS/tight":           0x140fc0d146c01277,
	"RTM-LE-lazy/TTAS":                0x2705112591ac7749,
	"RTM-LE-lazy/TTAS/tight":          0x517b71e3283db980,
	"RTM-LE/MCS":                      0x3336dcaa3cca0ed5,
	"RTM-LE/MCS/tight":                0x6ea314bdc29a289d,
	"RTM-LE/TTAS":                     0x631bd31ab438886a,
	"RTM-LE/TTAS/tight":               0x35b5c685189276e2,
	"Standard/MCS":                    0x0c856efc732d1760,
	"Standard/MCS/tight":              0x0c856efc732d1760,
	"Standard/TTAS":                   0x4117172fefe5cb2c,
	"Standard/TTAS/tight":             0x4117172fefe5cb2c,
}

// TestGoldenSchemeFingerprint runs one short, contended rbtree point per
// scheme, lock and write-set size (4 threads, 64 keys, 50/50 updates,
// profiling on), all on the same machine configuration. It hashes
// the operation and transaction counts, the final clock, any watchdog
// stop, and the profile JSON, which carries the serial-mark latencies
// and, for Adaptive, the controller's transition log. The constants were
// recorded before the RTM-based schemes were folded onto one speculative
// attempt and three recovery loops.
func TestGoldenSchemeFingerprint(t *testing.T) {
	cases := goldenSchemeCases()
	for _, c := range cases {
		t.Run(c.key, func(t *testing.T) {
			// A watchdog stop is hashed too.
			res := runPoint(c.machine(), c.spec, goldenSchemeWorkload,
				harness.Config{Threads: 4, CycleBudget: 300_000, Profile: &obs.Options{},
					Watchdog: goldenSchemeWatchdog})
			stop := ""
			if res.Failure != nil {
				stop = res.Failure.Reason
			}
			h := fnv.New64a()
			fmt.Fprintf(h, "%+v|%+v|%d|%s|", res.Ops, res.TSX, res.MaxClock, stop)
			h.Write(res.Profile.JSON())
			got := h.Sum64()
			if *printSchemeFingerprints {
				t.Logf("%-30q 0x%016x, // %d controller events %s", c.key+":", got, len(res.Profile.Controller), stop)
				return
			}
			want, ok := goldenSchemes[c.key]
			if !ok {
				t.Fatalf("no golden fingerprint (got 0x%016x)", got)
			}
			if got != want {
				t.Errorf("scheme fingerprint = 0x%016x, want 0x%016x (scheme behaviour changed!)", got, want)
			}
		})
	}
	if len(cases) != len(goldenSchemes) {
		t.Errorf("ran %d scheme/lock cases, golden table has %d", len(cases), len(goldenSchemes))
	}
}

// schemeCase is one TestGoldenSchemeFingerprint point: a scheme on a lock,
// keyed "Scheme/Lock" plus "/tight" for the small-write-set machine.
type schemeCase struct {
	key   string
	spec  harness.SchemeSpec
	tight bool
}

// goldenSchemeCases lists every scheme on TTAS and MCS, on the default and
// the tight machine.
func goldenSchemeCases() []schemeCase {
	var cases []schemeCase
	for _, name := range harness.SchemeNames() {
		// NoLock is single-threaded only.
		if name == "NoLock" {
			continue
		}
		for _, lock := range []string{"TTAS", "MCS"} {
			specs := map[string]harness.SchemeSpec{name: {Scheme: name, Lock: lock}}
			if name == "Adaptive" {
				// Starting on the floor walks the ladder back up, so
				// the Serial rung and both promotions run too.
				specs[name+"-from-serial"] = harness.SchemeSpec{Scheme: name, Lock: lock,
					Adapt: &adapt.Config{Start: adapt.Serial}}
			}
			// The tight machine's 4-line write set makes rebalancing
			// updates overflow, so the give-up paths run: capacity
			// aborts that clear the retry bit, exhausted SCM retry
			// budgets, and waits on a main lock a giver-up holds.
			for key, spec := range specs {
				key += "/" + lock
				cases = append(cases, schemeCase{key, spec, false}, schemeCase{key + "/tight", spec, true})
			}
		}
	}
	return cases
}

// machine is the case's machine configuration; each scheme selects its
// own elision hardware per thread in Setup.
func (c schemeCase) machine() tsx.Config {
	mcfg := machineCfg(4, 5)
	if c.tight {
		mcfg.WriteSetLines = 4
	}
	return mcfg
}

// goldenSchemeWorkload is the golden points' contended rbtree: 64 keys at
// 50/50 updates.
func goldenSchemeWorkload(th *tsx.Thread) harness.Workload {
	return harness.NewRBTree(th, 64, harness.MixExtensive)
}

// goldenSchemeWatchdog stops the naive lazy variants, which run on
// deliberately unsound hardware whose commits can corrupt the tree or the
// lock word and wedge the run, at a deterministic cycle.
var goldenSchemeWatchdog = &harness.WatchdogConfig{LivelockWindow: 2_000_000}
