package locks

import (
	"hle/internal/mem"
	"hle/internal/tsx"
)

// BackoffTTAS is a test-and-test-and-set lock with exponential backoff on
// failed acquisition attempts. The related-work chapter notes that Dice et
// al.'s transactional lock elision used backoffs against the lemming
// effect (their name for the avalanche); this lock lets the benchmarks
// compare that mitigation against the paper's SCM, which prevents the
// problem instead of damping it.
type BackoffTTAS struct {
	word mem.Addr

	// MinDelay/MaxDelay bound the randomized backoff in cycles.
	MinDelay uint64
	MaxDelay uint64
}

// NewBackoffTTAS allocates the lock with the default backoff window.
func NewBackoffTTAS(t *tsx.Thread) *BackoffTTAS {
	l := &BackoffTTAS{word: t.AllocLines(1), MinDelay: 16, MaxDelay: 1024}
	t.LabelLockLines(l.word, 1, "backoff-ttas-lock")
	return l
}

// Name implements Lock.
func (l *BackoffTTAS) Name() string { return "BackoffTTAS" }

// Fair implements Lock.
func (l *BackoffTTAS) Fair() bool { return false }

// Prepare implements Lock.
func (l *BackoffTTAS) Prepare(t *tsx.Thread) {}

// backoff waits a randomized delay and doubles the window.
func (l *BackoffTTAS) backoff(t *tsx.Thread, delay *uint64) {
	t.Work(uint64(t.Rand().Int63n(int64(*delay))) + 1)
	if *delay < l.MaxDelay {
		*delay *= 2
	}
}

// Acquire implements Lock.
func (l *BackoffTTAS) Acquire(t *tsx.Thread) {
	delay := l.MinDelay
	for {
		t.SpinWhile(l.word, 1)
		if t.Swap(l.word, 1) == 0 {
			return
		}
		l.backoff(t, &delay)
	}
}

// TryAcquire implements Lock.
func (l *BackoffTTAS) TryAcquire(t *tsx.Thread) bool {
	return t.Swap(l.word, 1) == 0
}

// Release implements Lock.
func (l *BackoffTTAS) Release(t *tsx.Thread) {
	t.Store(l.word, 0)
}

// SpecAcquire implements Lock: the TTAS elision path with backoff between
// failed speculative attempts.
func (l *BackoffTTAS) SpecAcquire(t *tsx.Thread) {
	delay := l.MinDelay
	for {
		if !t.ReissuePending() && !t.InTx() {
			t.SpinWhile(l.word, 1)
		}
		if t.XAcquireSwap(l.word, 1) == 0 {
			return
		}
		t.Pause()
		if !t.InTx() {
			l.backoff(t, &delay)
		}
	}
}

// SpecRelease implements Lock.
func (l *BackoffTTAS) SpecRelease(t *tsx.Thread) {
	t.XReleaseStore(l.word, 0)
}

// Held implements Lock.
func (l *BackoffTTAS) Held(t *tsx.Thread) bool {
	return t.Load(l.word) == 1
}

func (l *BackoffTTAS) heldWord() (mem.Addr, uint64, bool) { return l.word, 1, true }
