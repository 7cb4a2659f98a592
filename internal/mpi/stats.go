package mpi

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// CommStats counts the communication operations of a run, in the
// spirit of mpiP-style profiling: how many point-to-point messages and
// bytes moved, and how many collectives of each kind ran (counted once
// per rank entering) with the payload bytes they carried.
type CommStats struct {
	// Sends is the number of point-to-point messages posted.
	Sends int64
	// SendBytes is the payload total of those messages.
	SendBytes int64
	// Collectives counts entries per operation name ("barrier",
	// "allreduce", ...).
	Collectives map[string]int64
	// CollectiveBytes sums the payload bytes per operation name, as
	// contributed by each entering rank (a barrier carries none).
	CollectiveBytes map[string]int64
}

// String renders the stats compactly.
func (s CommStats) String() string {
	names := make([]string, 0, len(s.Collectives))
	for n := range s.Collectives {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := []string{fmt.Sprintf("sends=%d bytes=%d", s.Sends, s.SendBytes)}
	for _, n := range names {
		p := fmt.Sprintf("%s=%d", n, s.Collectives[n])
		if b := s.CollectiveBytes[n]; b > 0 {
			p += fmt.Sprintf("(%dB)", b)
		}
		parts = append(parts, p)
	}
	return strings.Join(parts, " ")
}

// statCounters is the World's lock-free accumulator.
type statCounters struct {
	sends     atomic.Int64
	sendBytes atomic.Int64
	coll      map[string]*atomic.Int64 // fixed key set, created up front
	collBytes map[string]*atomic.Int64
}

// collectiveKinds is the fixed set of collective operation names.
var collectiveKinds = []string{"barrier", "allreduce", "allgather"}

func newStatCounters() *statCounters {
	sc := &statCounters{
		coll:      map[string]*atomic.Int64{},
		collBytes: map[string]*atomic.Int64{},
	}
	for _, k := range collectiveKinds {
		sc.coll[k] = &atomic.Int64{}
		sc.collBytes[k] = &atomic.Int64{}
	}
	return sc
}

// countSend records one point-to-point message.
func (sc *statCounters) countSend(bytes int64) {
	sc.sends.Add(1)
	sc.sendBytes.Add(bytes)
}

// collectiveName extracts the operation name from an op signature.
func collectiveName(op string) string {
	if i := strings.IndexByte(op, '/'); i >= 0 {
		return op[:i]
	}
	return op
}

// countCollective records one rank entering a collective whose op
// signature starts with the operation name, carrying bytes of payload.
func (sc *statCounters) countCollective(op string, bytes int64) {
	name := collectiveName(op)
	if c, ok := sc.coll[name]; ok {
		c.Add(1)
	}
	if bytes > 0 {
		if c, ok := sc.collBytes[name]; ok {
			c.Add(bytes)
		}
	}
}

// snapshot converts the counters into a CommStats.
func (sc *statCounters) snapshot() CommStats {
	out := CommStats{
		Sends:           sc.sends.Load(),
		SendBytes:       sc.sendBytes.Load(),
		Collectives:     map[string]int64{},
		CollectiveBytes: map[string]int64{},
	}
	for name, c := range sc.coll {
		if v := c.Load(); v > 0 {
			out.Collectives[name] = v
		}
	}
	for name, c := range sc.collBytes {
		if v := c.Load(); v > 0 {
			out.CollectiveBytes[name] = v
		}
	}
	return out
}
