package tsx

// RTM executes body as a restricted transactional memory region
// (XBEGIN ... XEND). It returns (true, zero Status) if the transaction
// committed, or (false, abort status) if it aborted — the Go analogue of
// XBEGIN's fallback path. TSX provides a flat nesting model: an RTM region
// inside a transaction merely extends it, and any abort unwinds to the
// outermost begin.
//
// RTM makes no progress guarantee; callers must be prepared to fall back to
// a non-transactional path after repeated aborts.
func (t *Thread) RTM(body func()) (committed bool, st Status) {
	if tx := t.tx; tx != nil {
		// Flat nesting: run inline; the outermost region commits.
		tx.nest++
		body()
		tx.nest--
		return true, Status{}
	}
	t.Step(t.m.cfg.Costs.Begin)
	t.beginTx()
	return t.runTxBody(body)
}

// runTxBody executes body inside the already-begun transaction, committing
// on return and converting an abort unwind into a Status. Any other unwind
// (a scheduler stop order, a foreign panic) passes through unrecovered.
func (t *Thread) runTxBody(body func()) (committed bool, st Status) {
	defer func() {
		if t.aborting {
			t.endAbort(recover())
			st = t.finishAbort()
			committed = false
		}
	}()
	body()
	t.commit()
	return true, Status{}
}

// Abort is XABORT: it aborts the current transaction with the given
// 8-bit code, unwinding to the outermost begin. Outside a transaction it is
// a no-op, as on hardware.
func (t *Thread) Abort(code uint8) {
	if t.tx == nil {
		return
	}
	t.abortNow(CauseExplicit, code)
}
