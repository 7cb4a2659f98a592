package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"fibersim/internal/core"
	"fibersim/internal/perfdb"
)

// canonical returns the spec with the admission-path defaults applied
// and the non-experiment axis (the retry budget) cleared, so two
// submissions that describe the same model run canonicalise to the
// same value. The defaults mirror harness.RunSpec's resolver and
// common.RunConfig.Normalized: a64fx machine, 1x1 decomposition,
// as-is compiler, test size.
func (s Spec) canonical() Spec {
	if s.Machine == "" {
		s.Machine = "a64fx"
	}
	if s.Procs == 0 {
		s.Procs = 1
	}
	if s.Threads == 0 {
		s.Threads = 1
	}
	if s.Compiler == "" {
		s.Compiler = "as-is"
	}
	if s.Size == "" {
		s.Size = "test"
	}
	s.MaxRetries = 0
	return s
}

// ContentHash is the canonical content identity of the model run a
// spec describes: the experiment axes (app, machine, decomposition,
// compiler, size, fault schedule) plus the model version, and nothing
// else. The model is deterministic — same spec, same model, same
// result — so this hash is the result cache key and the singleflight
// coalescing key; folding core.ModelVersion in means a model bump
// invalidates every cached result instead of serving stale numbers.
// MaxRetries is deliberately excluded: it shapes retries, not the run.
func (s Spec) ContentHash() string {
	return s.contentHash(core.ModelVersion)
}

// contentHash is ContentHash with the model version injectable, so the
// bump-invalidates-the-cache property is testable without bumping.
func (s Spec) contentHash(modelVersion string) string {
	c := s.canonical()
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%s|%s|%dx%d|%s|%s|%s",
		modelVersion, c.App, c.Machine, c.Procs, c.Threads, c.Compiler, c.Size, c.Fault)))
	return hex.EncodeToString(sum[:16])
}

// ResultCache is the idempotent result store behind the manager's
// duplicate-spec serves: completed results keyed by Spec.ContentHash.
// File-backed caches persist each entry as one perfdb bench record
// (the record's spec_hash field carries the key), so the cache doubles
// as a benchmark trajectory of everything the service ever ran and
// survives restarts; an empty path keeps the cache in memory only.
// All methods are safe for concurrent use.
type ResultCache struct {
	mu     sync.Mutex
	traj   *perfdb.Trajectory
	byHash map[string]Result
}

// OpenResultCache loads (or creates) the cache at path; "" builds a
// memory-only cache. Records without a spec_hash are tolerated — the
// file may double as a hand-recorded trajectory — they just cannot be
// served. The latest record per hash wins.
func OpenResultCache(path string) (*ResultCache, error) {
	c := &ResultCache{byHash: map[string]Result{}}
	if path == "" {
		c.traj = &perfdb.Trajectory{}
		return c, nil
	}
	traj, err := perfdb.Load(path)
	if err != nil {
		return nil, err
	}
	c.traj = traj
	for _, r := range traj.Records {
		if r.SpecHash == "" {
			continue
		}
		c.byHash[r.SpecHash] = Result{TimeSeconds: r.TimeSeconds, GFlops: r.GFlops, Verified: r.Verified}
	}
	return c, nil
}

// Get returns the cached result for a content hash.
func (c *ResultCache) Get(hash string) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.byHash[hash]
	return res, ok
}

// Len reports the number of distinct cached specs.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byHash)
}

// Put records a completed run: in memory always, and as an appended
// perfdb record when the cache is file-backed (synced, so an
// acknowledged result survives a crash). A result the perfdb schema
// refuses (zero runtime, non-finite numbers) is not cached — the
// caller logs and moves on; duplicates simply re-run.
func (c *ResultCache) Put(spec Spec, hash string, res Result, now time.Time) error {
	cs := spec.canonical()
	rec := perfdb.Record{
		Schema:      perfdb.RecordSchema,
		App:         cs.App,
		Machine:     cs.Machine,
		Procs:       cs.Procs,
		Threads:     cs.Threads,
		Compiler:    cs.Compiler,
		Size:        cs.Size,
		SpecHash:    hash,
		UnixTime:    now.Unix(),
		TimeSeconds: res.TimeSeconds,
		GFlops:      res.GFlops,
		Verified:    res.Verified,
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.traj.Append(rec); err != nil {
		return err
	}
	c.byHash[hash] = res
	return nil
}

// warm inserts a journal-recovered result in memory only: replaying
// the same journal on every restart must not append duplicate records
// to the durable file. Existing (durable) entries win.
func (c *ResultCache) warm(hash string, res Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byHash[hash]; !ok {
		c.byHash[hash] = res
	}
}
