package figures_test

import (
	"flag"
	"fmt"
	"sort"
	"testing"

	"hle/internal/figures"
)

// printFigureDigests makes TestGoldenFigureDigests print pass 1's digests
// instead of comparing them with goldenFigures, for regenerating the
// constants after an intentional change to a figure's output:
//
//	go test ./internal/figures -run TestGoldenFigureDigests -figures.printdigests -v
var printFigureDigests = flag.Bool("figures.printdigests", false, "print figure digests instead of asserting")

// figureDigest is one figure's pinned output at tiny scale: an FNV-1a hash
// of every rendered table, and one of every delivered profile's name and
// JSON in delivery order.
type figureDigest struct{ tables, profiles uint64 }

// goldenFigures pins every figure's output in pass 1: tinyOpts scale,
// profiling on, one worker. The engine goldens (internal/sim,
// internal/tsx) and the scheme goldens (internal/harness) fix the layers
// underneath; these fix everything a figure adds on top — point setup,
// forking, measurement, aggregation and rendering — and so referee any
// refactor of the run path every figure shares.
var goldenFigures = map[string]figureDigest{
	"2.1":         {0x4b515ca8a24a046a, 0x2dc84ccec5c5ac7d},
	"3.1":         {0x17b8b1c73637ba2a, 0x1731d578b67c0dc8},
	"3.3":         {0xfa95f87d5f9a1b2c, 0x999cda16a2e44330},
	"3.4":         {0x06b3e56e54dbd0ca, 0x9d5ef76076ac82c9},
	"3.5":         {0xdf5e63cfd59feae4, 0x784ff0e3aa3bbb23},
	"5.1":         {0x3856bfdc0aa9a8cc, 0x20f9b21faa94cc78},
	"5.2":         {0xd1f20f781969d1ee, 0x1c3ec0f41a27f099},
	"5.2ht":       {0x6dcd4429c63d0299, 0xd3e184355872e4b6},
	"5.3":         {0x83a4cf7bdf927243, 0x325b065bb6666cad},
	"5.4":         {0x75112857f651493d, 0xfe2ddd99df837b96},
	"abl-backoff": {0x3de28be6fc098e0f, 0x09e2a40bd98256f0},
	"abl-miss":    {0xff7b40aca663ca6b, 0x128f7c527ded796c},
	"abl-multi":   {0xf3cd0e15a72b34ed, 0x9a6b517aa6fa1b37},
	"abl-scm":     {0x69e3b0e3f2efd2b9, 0x38d19a812e350507},
	"abl-spur":    {0x06d9309104f51ef0, 0xa29f026faddf35dc},
	"ch6":         {0xe087684cbd3c6baa, 0xd1a888358ab27216},
	"ch7":         {0xd4f7828f505a17b4, 0x6ab19d2230ff8295},
	"ext-adapt":   {0x959733e6c4f73ddf, 0xb01dda6801652103},
	"ext-chaos":   {0x07dc84d8293b6806, 0x81bb585611cd5360},
	"ext-cslen":   {0x0c6fa7ba66c826e3, 0x8aaedc2e5aec9cad},
	"ext-lazy":    {0x8e1619196bdcb91d, 0xd325d4f97b9bbfbb},
	"ext-place":   {0x0666f0fab684f092, 0xb1cfcd452974c0f0},
	"ext-scale":   {0xfc96d40e79b4ed34, 0x18acc81badc79b7c},
	"ext-shard":   {0x3906d09a3449d2a0, 0xf8273de960cc97e9},
	"ext-stamp":   {0xaa1039dd782c7a72, 0x796f42de824649a6},
	"profiles":    {0xbe853af2799b67c1, 0x99a918b481452ce2},
}

// TestGoldenFigureDigests compares every figure's pass 1 digests with
// goldenFigures. A mismatch here alone means the figure's output moved; a
// mismatch in TestParallelismDoesNotChangeOutput or
// TestProfileOutputParallelDeterminism means profiling or the worker count
// moved it.
func TestGoldenFigureDigests(t *testing.T) {
	if *printFigureDigests {
		all := figures.All()
		sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
		for _, f := range all {
			d := runPass(f, pass1).digest
			fmt.Printf("\t%q: {0x%016x, 0x%016x},\n", f.ID, d.tables, d.profiles)
		}
		return
	}
	for _, f := range figures.All() {
		want, ok := goldenFigures[f.ID]
		if !ok {
			t.Errorf("figure %s has no golden digest", f.ID)
			continue
		}
		compareDigests(t, "figure "+f.ID+", "+pass1.name+" vs golden", runPass(f, pass1).digest, want, true)
	}
	for id := range goldenFigures {
		if figures.ByID(id) == nil {
			t.Errorf("golden digest for unknown figure %s", id)
		}
	}
}
