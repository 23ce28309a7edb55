package explore

import (
	"math/bits"
	"math/rand"
	"strings"
	"testing"
)

// refAccess and refEdge are the list form an edge had before it became
// line masks: every access of the grant in order, and the thread's
// transactional footprint as one entry per line. refWriteFree,
// refDependent and refHits are that form's rules, kept verbatim as the
// reference oracle for the mask rules.
type refAccess struct {
	line  int
	write bool
}

type refEdge struct {
	accesses []refAccess
	txLines  []refAccess
	boundary bool
}

func refWriteFree(e *refEdge) bool {
	if e.boundary {
		return false
	}
	for _, a := range e.accesses {
		if a.write {
			return false
		}
	}
	return true
}

func refDependent(a, b *refEdge) bool {
	if a.boundary || b.boundary {
		return true
	}
	if len(a.accesses) == 0 || len(b.accesses) == 0 {
		return true
	}
	for _, x := range a.accesses {
		if refHits(b, x) {
			return true
		}
	}
	for _, y := range b.accesses {
		if refHits(a, y) {
			return true
		}
	}
	return false
}

func refHits(e *refEdge, x refAccess) bool {
	for _, a := range e.accesses {
		if a.line == x.line && (a.write || x.write) {
			return true
		}
	}
	for _, a := range e.txLines {
		if a.line == x.line && (a.write || x.write) {
			return true
		}
	}
	return false
}

// refAddFootprint adds an access to a transactional footprint list.
func refAddFootprint(s *[]refAccess, line int, write bool) {
	for i := range *s {
		if (*s)[i].line == line {
			if write {
				(*s)[i].write = true
			}
			return
		}
	}
	*s = append(*s, refAccess{line: line, write: write})
}

// maskEdge captures a list-form edge the way the replayer's taps do.
func maskEdge(r *refEdge) edge {
	e := edge{boundary: r.boundary}
	for _, a := range r.accesses {
		e.acc.add(a.line, a.write)
	}
	for _, a := range r.txLines {
		e.tx.add(a.line, a.write)
	}
	return e
}

// listEdge expands a captured mask edge into list form: each accessed
// line once as a read, and each written line once more as a write (the
// load-then-store a read-modify-write leaves), and the footprint one entry
// per line.
func listEdge(e *edge) refEdge {
	r := refEdge{boundary: e.boundary}
	for m := e.acc.lines; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		r.accesses = append(r.accesses, refAccess{line: l})
		if e.acc.written&(1<<l) != 0 {
			r.accesses = append(r.accesses, refAccess{line: l, write: true})
		}
	}
	for m := e.tx.lines; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		r.txLines = append(r.txLines, refAccess{line: l, write: e.tx.written&(1<<l) != 0})
	}
	return r
}

// checkVerdicts asserts that the mask rules and the list rules agree on
// every pair of edges, and that both verdicts of dependent occur.
func checkVerdicts(t *testing.T, refs []refEdge, masks []edge) {
	t.Helper()
	var dep, indep int
	for i := range refs {
		if got, want := writeFree(&masks[i]), refWriteFree(&refs[i]); got != want {
			t.Fatalf("edge %d %+v: writeFree %v, list rule says %v", i, refs[i], got, want)
		}
		for j := range refs {
			got, want := dependent(&masks[i], &masks[j]), refDependent(&refs[i], &refs[j])
			if got != want {
				t.Fatalf("edges %+v and %+v: dependent %v, list rule says %v", refs[i], refs[j], got, want)
			}
			if got {
				dep++
			} else {
				indep++
			}
		}
	}
	if dep == 0 || indep == 0 {
		t.Fatalf("%d dependent and %d independent pairs: the comparison is one-sided", dep, indep)
	}
}

// TestMaskEdgesMatchListRuleRandom compares the mask rules with the list
// rules on random footprints over lines 0-63: repeated and mixed
// read/write accesses to one line, boundary grants and silent grants (no
// access at all), with lines drawn mostly from a few hot ones so that
// overlaps are common.
func TestMaskEdgesMatchListRuleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	line := func() int {
		if rng.Intn(2) == 0 {
			return rng.Intn(4)
		}
		return rng.Intn(maxLines)
	}
	refs := make([]refEdge, 400)
	masks := make([]edge, len(refs))
	for i := range refs {
		r := &refs[i]
		r.boundary = rng.Intn(8) == 0
		for n := rng.Intn(7); n > 0; n-- {
			r.accesses = append(r.accesses, refAccess{line: line(), write: rng.Intn(3) == 0})
		}
		for n := rng.Intn(5); n > 0; n-- {
			refAddFootprint(&r.txLines, line(), rng.Intn(3) == 0)
		}
		masks[i] = maskEdge(r)
	}
	checkVerdicts(t, refs, masks)
}

// TestMaskEdgesMatchListRuleCaptured compares the two rules on every pair
// of final-grant edges captured while replaying the first frontiers of a
// quick configuration breadth-first (HLE over TTAS, so transactional
// footprints and boundary grants occur), each expanded to list form.
func TestMaskEdgesMatchListRuleCaptured(t *testing.T) {
	c := Config{Scheme: "HLE", Lock: "TTAS", Threads: 2, Ops: 1}
	c = c.withDefaults()
	e := newExplorer(&c)
	var refs []refEdge
	var masks []edge
	queue := [][]uint8{nil}
	for len(queue) > 0 && len(masks) < 400 {
		p := queue[0]
		queue = queue[1:]
		out := e.replayNode(&node{prefix: p}, nil, 0, nil)
		if len(p) > 0 {
			masks = append(masks, out.lastEdge)
			refs = append(refs, listEdge(&out.lastEdge))
		}
		if out.terminal || out.truncated || out.violation != nil {
			continue
		}
		for _, q := range out.enabledProcs() {
			queue = append(queue, append(p[:len(p):len(p)], q))
		}
	}
	var tx, boundary int
	for i := range masks {
		if masks[i].tx.lines != 0 {
			tx++
		}
		if masks[i].boundary {
			boundary++
		}
	}
	if tx == 0 || boundary == 0 {
		t.Fatalf("captured %d edges, %d with a transactional footprint and %d boundary grants: too narrow", len(masks), tx, boundary)
	}
	checkVerdicts(t, refs, masks)
}

// TestTooManyLinesPanics: an exploration machine with more lines than an
// edge's masks cover is refused when the explorer is built, not silently
// mis-pruned.
func TestTooManyLinesPanics(t *testing.T) {
	defer func(w int) { exploreWords = w }(exploreWords)
	exploreWords = 2 * maxLines * 8
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "line masks") {
			t.Fatalf("newExplorer with %d words: recovered %v, want a line-mask panic", exploreWords, r)
		}
	}()
	c := Config{Scheme: "Standard", Lock: "TTAS"}
	c = c.withDefaults()
	newExplorer(&c)
}
