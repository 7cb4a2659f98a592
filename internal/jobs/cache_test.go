package jobs

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fibersim/internal/core"
	"fibersim/internal/obs"
	"fibersim/internal/perfdb"
)

func TestContentHashCanonicalisation(t *testing.T) {
	// Defaults and explicit values hash identically: a bare spec and
	// its fully-spelled form are the same run.
	bare := Spec{App: "stream"}
	full := Spec{App: "stream", Machine: "a64fx", Procs: 1, Threads: 1, Compiler: "as-is", Size: "test"}
	if bare.ContentHash() != full.ContentHash() {
		t.Fatal("defaulted and explicit specs hash differently")
	}
	// The retry budget is a resilience knob, not an experiment axis.
	retrying := Spec{App: "stream", MaxRetries: 3}
	if retrying.ContentHash() != bare.ContentHash() {
		t.Fatal("max_retries leaked into the content hash")
	}
	// Every experiment axis must move the hash.
	for _, other := range []Spec{
		{App: "mvmc"},
		{App: "stream", Size: "large"},
		{App: "stream", Procs: 2},
		{App: "stream", Threads: 4},
		{App: "stream", Compiler: "fcc"},
		{App: "stream", Fault: "crash@1.0"},
	} {
		if other.ContentHash() == bare.ContentHash() {
			t.Fatalf("spec %+v hash-collides with the base spec", other)
		}
	}
}

func TestContentHashFoldsModelVersion(t *testing.T) {
	// The exported hash is the injectable form at the current version;
	// bumping the version must move every hash, so a recalibrated model
	// never serves results cached under the old numbers.
	spec := Spec{App: "stream"}
	if spec.ContentHash() != spec.contentHash(core.ModelVersion) {
		t.Fatal("ContentHash does not fold core.ModelVersion")
	}
	if spec.contentHash("fibersim-model/v2") == spec.ContentHash() {
		t.Fatal("model-version bump did not change the content hash")
	}
}

func TestResultCacheDurableRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	c, err := OpenResultCache(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{App: "stream", Size: "large"}
	res := Result{TimeSeconds: 3.5, GFlops: 120, Verified: true}
	if err := c.Put(spec, spec.ContentHash(), res, time.Unix(1700000000, 0)); err != nil {
		t.Fatal(err)
	}
	// A result perfdb's schema refuses (zero runtime) is not cached.
	bad := Spec{App: "stream", Size: "broken"}
	if err := c.Put(bad, bad.ContentHash(), Result{}, time.Unix(1700000000, 0)); err == nil {
		t.Fatal("zero-runtime result cached, want refusal")
	}
	if c.Len() != 1 {
		t.Fatalf("cache len %d, want 1", c.Len())
	}

	// Reopen: the entry survives, hash-addressable.
	c2, err := OpenResultCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c2.Get(spec.ContentHash()); !ok || got != res {
		t.Fatalf("reloaded entry %+v (found %v), want %+v", got, ok, res)
	}

	// The cache file is a plain perfdb trajectory, stamped with the
	// recording time: records without a spec_hash (hand-recorded
	// benchmarks) coexist, just unservable.
	traj, err := perfdb.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(traj.Records) != 1 || traj.Records[0].UnixTime != 1700000000 {
		t.Fatalf("cache file records %+v, want one stamped 1700000000", traj.Records)
	}
	if err := traj.Append(perfdb.Record{
		Schema: perfdb.RecordSchema, App: "mvmc", Machine: "a64fx",
		Procs: 1, Threads: 1, Compiler: "as-is", Size: "test", TimeSeconds: 9,
	}); err != nil {
		t.Fatal(err)
	}
	c3, err := OpenResultCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if c3.Len() != 1 {
		t.Fatalf("hashless record entered the cache: len %d, want 1", c3.Len())
	}

	// warm never overwrites a durable entry and never touches the file.
	c3.warm(spec.ContentHash(), Result{TimeSeconds: 99})
	if got, _ := c3.Get(spec.ContentHash()); got != res {
		t.Fatal("warm overwrote a durable entry")
	}
}

// stepClock is a hand-advanced clock: the breaker tests move it past
// the cooldown exactly instead of sleeping.
type stepClock struct {
	mu sync.Mutex
	t  time.Time
}

func newStepClock() *stepClock {
	return &stepClock{t: time.Unix(1700000000, 0)}
}

func (c *stepClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *stepClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// TestBreakerCacheInteraction pins the cache around an open breaker:
// warm cache → cached serve while fresh work is refused; cold cache →
// fail fast; cooldown elapsed → the next duplicate runs fresh as the
// half-open probe and its success closes the breaker.
func TestBreakerCacheInteraction(t *testing.T) {
	clk := newStepClock()
	cache, err := OpenResultCache("")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := testConfig(func(ctx context.Context, spec Spec) (Result, error) {
		if spec.Size == "bad" {
			return Result{}, errors.New("boom")
		}
		return Result{TimeSeconds: 1.5, GFlops: 10, Verified: true}, nil
	})
	cfg.Cache = cache
	cfg.Registry = reg
	cfg.Now = clk.now
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = 30 * time.Second
	m := startManager(t, cfg)

	// Warm the cache with a good run, then trip the shared
	// (app, machine) breaker with two distinct failing specs.
	good := Spec{App: "stream", Size: "fine"}
	j, err := m.Submit(good)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, j.ID)
	for i := 0; i < 2; i++ {
		j, err := m.Submit(Spec{App: "stream", Size: "bad", Fault: fmt.Sprintf("f%d", i)})
		if err != nil {
			t.Fatalf("failing submit %d: %v", i, err)
		}
		waitTerminal(t, m, j.ID)
	}
	states := m.BreakerStates()
	if len(states) != 1 || states[0].State != BreakerOpen {
		t.Fatalf("breaker states %+v, want stream|a64fx open", states)
	}

	// Open breaker + warm cache: the cached result is served.
	clk.advance(10 * time.Second)
	served, err := m.Submit(good)
	if err != nil {
		t.Fatalf("warm-cache submit under open breaker: %v", err)
	}
	if !served.Cached || served.State != StateDone || served.Result == nil || served.Result.TimeSeconds != 1.5 {
		t.Fatalf("serve = %+v, want the cached done result", served)
	}
	if got := reg.Counter("fiberd_cache_hits_total", "", nil).Value(); got != 1 {
		t.Fatalf("cache hit counter %v, want 1", got)
	}

	// Open breaker + cold cache: fail fast.
	if _, err := m.Submit(Spec{App: "stream", Size: "cold"}); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("cold-cache submit error %v, want ErrBreakerOpen", err)
	}
	if got := reg.Counter("fiberd_jobs_rejected_total", "", obs.Labels{"reason": "breaker_open"}).Value(); got != 1 {
		t.Fatalf("breaker rejection counter %v, want 1", got)
	}

	// Cooldown elapsed: the duplicate becomes the half-open probe and
	// executes fresh — a cache hit must not short-circuit the probe,
	// or a purely duplicate workload could never close the breaker.
	clk.advance(30 * time.Second)
	probe, err := m.Submit(good)
	if err != nil {
		t.Fatalf("probe submit: %v", err)
	}
	if probe.Cached || probe.Coalesced {
		t.Fatalf("probe was served from cache: %+v", probe)
	}
	waitTerminal(t, m, probe.ID)
	if states := m.BreakerStates(); states[0].State != BreakerClosed {
		t.Fatalf("breaker %v after successful probe, want closed", states[0].State)
	}

	// Closed again: duplicates are served from the cache as before.
	after, err := m.Submit(good)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Cached {
		t.Fatalf("post-probe serve = %+v, want cached", after)
	}
}

// TestQueueSaturationDegradedServe pins service under saturation: a
// full queue sheds cold specs with ErrQueueFull but still answers warm
// specs from the cache.
func TestQueueSaturationDegradedServe(t *testing.T) {
	cache, err := OpenResultCache("")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	release := make(chan struct{})
	cfg := testConfig(func(ctx context.Context, spec Spec) (Result, error) {
		if spec.Size == "block" {
			<-release
		}
		return Result{TimeSeconds: 1, GFlops: 1, Verified: true}, nil
	})
	cfg.Workers = 1
	cfg.QueueCap = 1
	cfg.Cache = cache
	cfg.Registry = reg
	m := startManager(t, cfg)
	defer close(release)

	warm := Spec{App: "stream", Size: "warm"}
	j, err := m.Submit(warm)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, j.ID)

	// Occupy the worker, then fill the one queue slot.
	if _, err := m.Submit(Spec{App: "stream", Size: "block"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "blocker running", func() bool { return m.QueueDepth() == 0 })
	if _, err := m.Submit(Spec{App: "stream", Size: "q1"}); err != nil {
		t.Fatal(err)
	}

	// The queue is saturated: a cold spec is shed with an error.
	if _, err := m.Submit(Spec{App: "stream", Size: "q2"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("cold spec on saturated queue: %v, want ErrQueueFull", err)
	}
	if got := reg.Counter("fiberd_jobs_rejected_total", "", obs.Labels{"reason": "queue_full"}).Value(); got != 1 {
		t.Fatalf("queue-full rejection counter %v, want 1", got)
	}

	// Warm spec on the saturated queue: served from the cache.
	served, err := m.Submit(warm)
	if err != nil {
		t.Fatalf("warm spec on saturated queue: %v", err)
	}
	if !served.Cached || served.State != StateDone || served.Result == nil {
		t.Fatalf("serve = %+v, want the cached done result", served)
	}
	if got := reg.Counter("fiberd_cache_hits_total", "", nil).Value(); got != 1 {
		t.Fatalf("cache hit counter %v, want 1", got)
	}
	if d := m.QueueDepth(); d != 1 {
		t.Fatalf("queue depth %d after the cached serve, want 1", d)
	}
}

// TestDuplicateSpecsCoalesce pins the singleflight half of the cache:
// duplicates of an in-flight spec attach to the running job (one
// execution), and duplicates of a completed spec are served from the
// cache without a worker ever seeing them.
func TestDuplicateSpecsCoalesce(t *testing.T) {
	cache, err := OpenResultCache("")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	var runs atomic.Int64
	release := make(chan struct{})
	cfg := testConfig(func(ctx context.Context, spec Spec) (Result, error) {
		runs.Add(1)
		<-release
		return Result{TimeSeconds: 2.5, GFlops: 40, Verified: true}, nil
	})
	cfg.Workers = 1
	cfg.Cache = cache
	cfg.Registry = reg
	m := startManager(t, cfg)

	spec := Spec{App: "stream"}
	first, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first job running", func() bool { return runs.Load() == 1 })

	// The same run spelled differently (defaults explicit, a retry
	// budget) still coalesces: only the experiment axes identify it.
	for i := 0; i < 4; i++ {
		dup, err := m.Submit(Spec{App: "stream", Machine: "a64fx", Size: "test", MaxRetries: i})
		if err != nil {
			t.Fatalf("duplicate %d: %v", i, err)
		}
		if !dup.Coalesced || dup.ID != first.ID {
			t.Fatalf("duplicate %d = %+v, want coalesced onto %s", i, dup, first.ID)
		}
	}
	if got := reg.Counter("fiberd_cache_coalesced_total", "", nil).Value(); got != 4 {
		t.Fatalf("coalesce counter %v, want 4", got)
	}

	close(release)
	done := waitTerminal(t, m, first.ID)
	if done.State != StateDone {
		t.Fatalf("first job %s, want done", done.State)
	}

	cached, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !cached.Cached || cached.State != StateDone {
		t.Fatalf("post-completion duplicate = %+v, want cached done", cached)
	}
	if cached.Result == nil || cached.Result.TimeSeconds != 2.5 {
		t.Fatalf("cached result = %+v, want the original", cached.Result)
	}
	if got := reg.Counter("fiberd_cache_hits_total", "", nil).Value(); got != 1 {
		t.Fatalf("cache hit counter %v, want 1", got)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("runner executed %d times, want exactly 1", got)
	}
}

// TestDuplicateNeverRunsTwice: a finished job's result reaches the
// cache before the job leaves the in-flight index, so a duplicate
// submitted while the job finishes finds one or the other and never
// starts a second run. Such a gap would be as wide as the file-backed
// cache's write and fsync; 100 trials of four racing submitters hit it
// with near certainty.
func TestDuplicateNeverRunsTwice(t *testing.T) {
	dir := t.TempDir()
	for trial := 0; trial < 100; trial++ {
		cache, err := OpenResultCache(filepath.Join(dir, fmt.Sprintf("cache-%d.json", trial)))
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(okRunner)
		cfg.Workers = 1
		cfg.Cache = cache
		m := startManager(t, cfg)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					job, err := m.Submit(Spec{App: "stream"})
					if err != nil {
						t.Error(err)
						return
					}
					if job.Cached {
						return
					}
				}
			}()
		}
		wg.Wait()
		if n := len(m.Jobs(0)); n != 1 {
			t.Fatalf("trial %d: one spec admitted as %d jobs, want 1", trial, n)
		}
	}
}
