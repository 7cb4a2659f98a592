package mpi

import (
	"errors"
	"fmt"
)

// BlockedOp is one rank's in-flight blocking operation, captured for
// the deadlock dump: what it is waiting in, on whom, and where its
// virtual clock stood when it blocked.
type BlockedOp struct {
	// Rank is the blocked rank.
	Rank int
	// Op names the operation ("recv", "allreduce/...", ...).
	Op string
	// Peer is the awaited rank; -1 for collectives.
	Peer int
	// Tag is the awaited tag; -1 for collectives.
	Tag int
	// Clock is the rank's virtual time when it blocked (s).
	Clock float64
}

func (b BlockedOp) String() string {
	switch {
	case b.Peer < 0 && b.Tag < 0:
		return fmt.Sprintf("rank %d: %s clock=%.9gs", b.Rank, b.Op, b.Clock)
	default:
		return fmt.Sprintf("rank %d: %s peer=%d tag=%d clock=%.9gs", b.Rank, b.Op, b.Peer, b.Tag, b.Clock)
	}
}

// DeadlockError reports a world in which every live rank is parked in
// a receive or a collective that no running rank can complete. It names
// the rank whose park or return left no rank running or runnable, and
// dumps every blocked rank's operation at that moment, so a hung
// exchange is diagnosable from the error alone. It unwraps to
// ErrDeadlock.
type DeadlockError struct {
	// Rank is the rank whose park or return completed the deadlock.
	Rank int
	// Blocked lists every blocked rank, ordered by rank; ranks that had
	// returned are absent.
	Blocked []BlockedOp
}

func (e *DeadlockError) Error() string {
	s := fmt.Sprintf("mpi: deadlock: no rank can run after rank %d; %d blocked rank(s):",
		e.Rank, len(e.Blocked))
	for _, b := range e.Blocked {
		s += "\n  " + b.String()
	}
	return s
}

// Unwrap makes errors.Is(err, ErrDeadlock) hold for the structured error.
func (e *DeadlockError) Unwrap() error { return ErrDeadlock }

// ErrAborted marks errors caused by a world-wide abort; every rank
// blocked at abort time unwraps to it.
var ErrAborted = errors.New("mpi: world aborted")

// CrashError reports a rank killed by a fault-schedule crash event.
type CrashError struct {
	// Rank is the rank that died.
	Rank int
	// Time is the scheduled virtual time of death (s).
	Time float64
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("mpi: rank %d crashed at t=%.9gs (fault schedule)", e.Rank, e.Time)
}

// AbortError is what the surviving ranks observe after a world-wide
// abort: it wraps the root cause (a CrashError, a DeadlockError, ...)
// so errors.Is/As reach both ErrAborted and the cause.
type AbortError struct {
	// Cause is the error that triggered the abort.
	Cause error
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("mpi: world aborted: %v", e.Cause)
}

// Unwrap exposes both the abort marker and the root cause.
func (e *AbortError) Unwrap() []error { return []error{ErrAborted, e.Cause} }

// abort terminates the world once: the first caller wins, every rank
// parked in an MPI operation is released with an AbortError, and later
// FaultCheck calls fail fast.
func (w *World) abort(cause error) {
	w.abortOnce.Do(func() {
		w.abortErr = cause
		close(w.abortCh)
	})
}

// abortedError returns the AbortError for a world known to be aborted.
// Safe only after abortCh is closed (the close happens-before any read
// of abortErr through the channel).
func (w *World) abortedError() error {
	return &AbortError{Cause: w.abortErr}
}

// FaultCheck is the per-rank fault checkpoint: it fires a scheduled
// crash once the rank's virtual clock reaches its time of death
// (aborting the whole world so no partner hangs), and fails fast when
// the world was already aborted by another rank. The runtime calls it
// at the entry of every MPI operation; the miniapp launcher calls it
// after every modelled kernel charge. Returns nil on a healthy world.
func (c *Comm) FaultCheck() error {
	w := c.world
	if at, ok := w.inj.CrashTime(c.rank); ok && c.Clock().Now() >= at {
		w.inj.RecordCrash(c.rank)
		err := &CrashError{Rank: c.rank, Time: at}
		w.abort(err)
		return err
	}
	select {
	case <-w.abortCh:
		return w.abortedError()
	default:
		return nil
	}
}

// linkScale returns the fault-schedule cost multiplier for a message
// between two ranks, mapped to their simulated nodes.
func (w *World) linkScale(a, b int, at float64) float64 {
	if w.inj == nil {
		return 1
	}
	return w.inj.LinkScale(a/w.cfg.RanksPerNode, b/w.cfg.RanksPerNode, at)
}
