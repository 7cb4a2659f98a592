package mpi

// park frees rank g's run slot and sleeps until whoever ends its wait
// wakes it, then retakes a slot. The caller has recorded the wait in
// w.blocked under the lock that proves it. A park that leaves no
// rank running or runnable cannot be ended by anyone: it returns the
// deadlock (still holding the slot) instead of sleeping. A park ended
// by a world-wide abort returns the AbortError.
func (w *World) park(g int) error {
	if w.active.Add(-1) == 0 {
		w.active.Add(1)
		return w.stall(g)
	}
	<-w.slots
	var err error
	select {
	case <-w.wake[g]:
	case <-w.abortCh:
		// Nobody marked this rank runnable; it counts itself back in.
		w.active.Add(1)
		err = w.abortedError()
	}
	w.slots <- struct{}{}
	w.blocked[g] = BlockedOp{}
	return err
}

// unpark marks parked rank g runnable, then wakes it. The caller ends
// g's wait under the lock g parked under. The send never blocks:
// a rank parks in one place at a time, and only the one caller that
// ends that park signals it.
func (w *World) unpark(g int) {
	w.active.Add(1)
	w.wake[g] <- struct{}{}
}

// exit retires rank g when its body returns or panics, freeing its
// slot. A return that leaves no rank running or runnable while some
// are still live strands the ranks parked on it.
func (w *World) exit(g int) {
	w.live.Add(-1)
	if w.active.Add(-1) == 0 && w.live.Load() > 0 {
		_ = w.stall(g)
	}
	<-w.slots
}

// stall handles a park or return by rank g that left no rank running
// or runnable. Unless the world is already aborting, nobody can end the
// remaining waits: it builds the DeadlockError from the blocked
// table and aborts the world with it, which releases every parked rank.
// No rank runs while it reads the table.
func (w *World) stall(g int) error {
	select {
	case <-w.abortCh:
		return w.abortedError()
	default:
	}
	e := &DeadlockError{Rank: g}
	for _, b := range w.blocked {
		if b.Op != "" {
			e.Blocked = append(e.Blocked, b)
		}
	}
	w.abort(e)
	return e
}
