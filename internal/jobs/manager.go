package jobs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"fibersim/internal/obs"
)

// Runner executes one attempt of a job. It must honour ctx (the
// per-attempt deadline) on a best-effort basis; the manager also
// guards every attempt with its own timer and panic recovery, so a
// runner that ignores ctx costs an abandoned goroutine, not a stuck
// worker. cmd/fiberd wires this to the harness/miniapps path.
type Runner func(ctx context.Context, spec Spec) (Result, error)

// Admission errors. The HTTP layer maps these to status codes:
// ErrQueueFull → 429 + Retry-After, ErrBreakerOpen and ErrDraining →
// 503 + Retry-After.
var (
	ErrQueueFull   = errors.New("jobs: admission queue full")
	ErrDraining    = errors.New("jobs: draining, not accepting work")
	ErrBreakerOpen = errors.New("jobs: circuit breaker open")
	// ErrTimeout marks an attempt killed by its deadline; deadline
	// failures are not retried (the simulator is deterministic — a
	// rerun would time out again) and count against the breaker.
	ErrTimeout = errors.New("jobs: attempt deadline exceeded")
)

// Config parameterises a Manager. Zero values get safe defaults.
type Config struct {
	// Runner executes attempts (required).
	Runner Runner
	// QueueCap bounds the admission queue (jobs accepted but not yet
	// picked up); default 64. Recovered jobs bypass the bound — they
	// were admitted by a previous life of the daemon.
	QueueCap int
	// Cache, when non-nil, turns on idempotent-result serving: duplicate
	// submissions of an in-flight spec coalesce onto the running job,
	// and completed specs are answered from the cache, even when fresh
	// execution would be refused (breaker open, queue full, draining).
	// Nil makes every submission a distinct job.
	Cache *ResultCache
	// Workers sizes the worker pool; default 2.
	Workers int
	// JobTimeout is the per-attempt deadline; default 5m.
	JobTimeout time.Duration
	// MaxRetries is the default and ceiling for per-job retries.
	MaxRetries int
	// Backoff schedules the wait between attempts.
	Backoff Backoff
	// BreakerThreshold trips a (app, machine) breaker after this many
	// consecutive failures; default 5.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker refuses work
	// before the half-open probe; default 30s.
	BreakerCooldown time.Duration
	// Journal, when non-nil, records every state transition.
	Journal *Journal
	// Registry, when non-nil, receives the serving metrics
	// (fiberd_jobs_*, fiberd_job_*, fiberd_breaker_state).
	Registry *obs.Registry
	// Now is the wall clock; nil uses time.Now (tests inject).
	Now func() time.Time
	// Logf, when non-nil, receives operational log lines (journal
	// write failures, recovery summary).
	Logf func(format string, args ...any)
	// OnTransition, when non-nil, observes every job state change with
	// a snapshot taken just after the transition (fiberd logs each one).
	// Called without manager locks held; must not block for long.
	OnTransition func(Job)
}

// Manager owns the job state machine: admission, execution, retry,
// breaker and journal. Construct with NewManager, optionally feed it
// OpenJournal's replayed records via Recover, then Start it.
type Manager struct {
	cfg Config

	mu    sync.Mutex
	cond  *sync.Cond
	jobs  map[string]*Job
	order []string
	queue []*Job // accepted jobs awaiting a worker, oldest first
	// inflight maps spec content hash → the accepted-or-running job for
	// that spec, the singleflight index duplicate submissions coalesce
	// through. Populated only when cfg.Cache is set.
	inflight map[string]*Job
	seq      int
	breakers map[string]*Breaker
	draining bool
	running  int
	ewmaSec  float64 // smoothed wall seconds per attempt, for Retry-After

	// admitting counts the jobs whose accepted record is still being
	// journaled and reported: not yet queued, but counted against the
	// queue bound.
	admitting int

	drainCtx  context.Context
	drainStop context.CancelFunc
	wg        sync.WaitGroup
}

// NewManager builds a Manager; it does not start workers.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Runner == nil {
		return nil, errors.New("jobs: config has no Runner")
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 5 * time.Minute
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 30 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	m := &Manager{
		cfg:      cfg,
		jobs:     map[string]*Job{},
		inflight: map[string]*Job{},
		breakers: map[string]*Breaker{},
	}
	m.cond = sync.NewCond(&m.mu)
	m.drainCtx, m.drainStop = context.WithCancel(context.Background())
	if r := cfg.Registry; r != nil {
		// Eager registration so /metrics always exposes the queue
		// shape, jobs or not.
		r.Gauge("fiberd_jobs_queue_depth", "Jobs accepted and waiting for a worker.", nil).Set(0)
		r.Gauge("fiberd_jobs_queue_capacity", "Admission queue bound; submissions beyond it are shed with 429.", nil).
			Set(float64(cfg.QueueCap))
		r.Gauge("fiberd_jobs_running", "Jobs currently executing an attempt.", nil).Set(0)
	}
	return m, nil
}

// Recover folds replayed journal records into the manager: terminal
// jobs become servable history, in-flight jobs re-enter the queue
// exactly once (their accepted record is already in the journal, so
// nothing is re-appended). Call before Start.
func (m *Manager) Recover(recs []Record) {
	requeued := 0
	m.mu.Lock()
	for _, job := range Replay(recs) {
		if _, dup := m.jobs[job.ID]; dup {
			continue
		}
		m.jobs[job.ID] = job
		m.order = append(m.order, job.ID)
		var n int
		if _, err := fmt.Sscanf(job.ID, "job-%d", &n); err == nil && n > m.seq {
			m.seq = n
		}
		if !job.State.Terminal() {
			// Queue wait for a recovered job is measured from recovery,
			// not from its original (dead-process) admission.
			job.enqueued = m.cfg.Now()
			if m.cfg.Cache != nil {
				job.hash = job.Spec.ContentHash()
				if m.inflight[job.hash] == nil {
					m.inflight[job.hash] = job
				}
			}
			m.queue = append(m.queue, job)
			requeued++
		} else if job.State == StateDone && job.Result != nil && m.cfg.Cache != nil {
			// A completed job in the journal warms the cache in memory
			// (not durably: replaying the same journal every restart
			// must not grow the cache file).
			m.cfg.Cache.warm(job.Spec.ContentHash(), *job.Result)
		}
	}
	m.gaugeQueueLocked()
	total := len(m.order)
	m.mu.Unlock()
	if requeued > 0 || total > 0 {
		m.logf("jobs: recovered %d journaled jobs, re-queued %d incomplete", total, requeued)
	}
}

// Start launches the worker pool.
func (m *Manager) Start() {
	for i := 0; i < m.cfg.Workers; i++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.workerLoop()
		}()
	}
}

// Submit admits one job untraced; see SubmitTraced.
func (m *Manager) Submit(spec Spec) (Job, error) {
	return m.SubmitTraced(spec, nil)
}

// SubmitTraced admits one job: validate, consult the (app, machine)
// breaker, coalesce onto an in-flight duplicate or serve a cached
// result (when a cache is configured), enforce the queue bound,
// journal and report the accepted record, then enqueue. The accepted
// record is durable before any worker can see the job, so no running
// record precedes it and an acknowledged job can never be lost to a
// crash.
//
// With a cache configured, a duplicate of an in-flight spec returns
// that job's snapshot with Coalesced set, and a duplicate of a
// completed spec returns a synthetic done snapshot with Cached set (no
// new job ID is minted) — also when fresh execution would be refused
// (breaker open, draining, queue full), because the cached result is
// exactly what a fresh run would return: the content hash folds in the
// model version and the model is deterministic. A cold spec gets the
// refusal error. A half-open breaker's probe never serves from cache:
// it must execute fresh so its outcome can settle the breaker.
//
// span, when non-nil, is the job's root trace span (opened by the
// transport at the request door). On any nil-error return the manager
// takes ownership — for enqueued jobs it annotates the span across the
// whole lifecycle (queue wait with depth at enqueue, each attempt,
// backoff sleeps, journal writes) and ends it at the terminal
// transition; for coalesced and cached serves it annotates the outcome
// and ends the span immediately. On error ownership stays with the
// caller, which should annotate the rejection and end the span itself.
func (m *Manager) SubmitTraced(spec Spec, span *obs.Span) (Job, error) {
	if err := spec.Validate(); err != nil {
		m.countRejected("invalid")
		return Job{}, err
	}
	var hash string
	if m.cfg.Cache != nil {
		hash = spec.ContentHash()
	}
	// breakerFor takes m.mu, so the breaker consult happens before the
	// admission lock. Admit (not Allow): if this admission seizes the
	// half-open probe slot but ends in anything other than an
	// execution, the slot must be released or the breaker jams.
	b := m.breakerFor(spec.Key())
	allow, probe := b.Admit()

	m.mu.Lock()
	// Coalesce before any shed decision: if the same spec is already
	// accepted or running, the answer is on the way and this submission
	// just attaches to it.
	if hash != "" {
		if cur := m.inflight[hash]; cur != nil {
			snap := *cur
			m.mu.Unlock()
			if probe {
				b.ReleaseProbe()
			}
			snap.Coalesced = true
			snap.span, snap.queueSpan = nil, nil
			m.count("fiberd_cache_coalesced_total",
				"Duplicate submissions coalesced onto an in-flight job.", nil)
			span.SetAttr("job_id", snap.ID)
			span.SetAttr("outcome", "coalesced")
			span.End()
			return snap, nil
		}
	}
	if hash != "" && !probe {
		if res, hit := m.cfg.Cache.Get(hash); hit {
			m.mu.Unlock()
			m.count("fiberd_cache_hits_total", "Submissions answered from the idempotent result cache.", nil)
			span.SetAttr("outcome", "cached")
			span.End()
			return Job{Spec: spec, State: StateDone, Result: &res, Cached: true}, nil
		}
	}
	var refusal error
	switch {
	case !allow:
		refusal = fmt.Errorf("%w for %s", ErrBreakerOpen, spec.Key())
		m.countRejected("breaker_open")
	case m.draining:
		refusal = ErrDraining
		m.countRejected("draining")
	case len(m.queue)+m.admitting >= m.cfg.QueueCap:
		refusal = ErrQueueFull
		m.countRejected("queue_full")
	}
	if refusal != nil {
		m.mu.Unlock()
		if probe {
			b.ReleaseProbe()
		}
		return Job{}, refusal
	}
	m.seq++
	now := m.cfg.Now()
	job := &Job{
		ID:       fmt.Sprintf("job-%06d", m.seq),
		Spec:     spec,
		State:    StateAccepted,
		span:     span,
		enqueued: now,
		hash:     hash,
	}
	if ctx := span.Context(); ctx.Valid() {
		job.TraceID = ctx.TraceID.String()
	}
	span.SetAttr("job_id", job.ID)
	m.jobs[job.ID] = job
	m.order = append(m.order, job.ID)
	if hash != "" {
		m.inflight[hash] = job
	}
	m.admitting++
	snapshot := *job
	m.mu.Unlock()

	// Journal and report the accepted record before the job reaches
	// the queue: a worker that picks it up journals and reports
	// running, which must come second, and a crash in between must
	// leave the spec behind to re-run.
	m.append(span, Record{
		Schema: JournalSchema, ID: snapshot.ID, State: StateAccepted,
		Spec: &snapshot.Spec, UnixNanos: now.UnixNano(), TraceID: snapshot.TraceID,
	})
	m.countState(StateAccepted)
	m.notify(snapshot)

	m.mu.Lock()
	m.admitting--
	depth := len(m.queue)
	m.queue = append(m.queue, job)
	// The queue-wait span opens at enqueue and is ended by the worker
	// that dequeues the job; the depth attribute is the backlog this
	// job queued behind.
	job.queueSpan = span.StartChild("queue-wait")
	job.queueSpan.SetAttr("depth_at_enqueue", strconv.Itoa(depth))
	m.gaugeQueueLocked()
	m.cond.Signal()
	m.mu.Unlock()
	return snapshot, nil
}

// Get returns a copy of the job.
func (m *Manager) Get(id string) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *job, true
}

// Jobs returns copies of tracked jobs in submission order: the most
// recent limit jobs when limit > 0, else all of them. The limit backs
// GET /jobs' ?limit= parameter, which exists because the unbounded
// listing grew with every job the daemon ever saw.
func (m *Manager) Jobs(limit int) []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := m.order
	if limit > 0 && len(ids) > limit {
		ids = ids[len(ids)-limit:]
	}
	out := make([]Job, 0, len(ids))
	for _, id := range ids {
		out = append(out, *m.jobs[id])
	}
	return out
}

// QueueDepth returns the number of jobs accepted but not yet running.
func (m *Manager) QueueDepth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue)
}

// Draining reports whether the manager has stopped accepting work.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// RetryAfter estimates when shed load is worth retrying: the queue's
// expected drain time under the smoothed per-attempt latency, clamped
// to [1s, 60s]. It is the Retry-After header on 429 responses.
func (m *Manager) RetryAfter() time.Duration {
	m.mu.Lock()
	depth, ewma := len(m.queue), m.ewmaSec
	m.mu.Unlock()
	if ewma <= 0 {
		ewma = 1
	}
	d := time.Duration(float64(depth) * ewma / float64(m.cfg.Workers) * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	if d > time.Minute {
		d = time.Minute
	}
	return d
}

// BreakerStates snapshots every breaker, keyed by "app|machine",
// sorted for deterministic /healthz and /readyz bodies.
func (m *Manager) BreakerStates() []struct {
	Key   string
	State BreakerState
} {
	m.mu.Lock()
	keys := make([]string, 0, len(m.breakers))
	for k := range m.breakers {
		keys = append(keys, k)
	}
	m.mu.Unlock()
	sort.Strings(keys)
	out := make([]struct {
		Key   string
		State BreakerState
	}, 0, len(keys))
	for _, k := range keys {
		out = append(out, struct {
			Key   string
			State BreakerState
		}{k, m.breakerFor(k).State()})
	}
	return out
}

// Drain stops admission, cancels retry backoffs, lets every running
// attempt finish, and syncs the journal. Queued jobs stay journaled
// as accepted — a restart re-queues them. Returns ctx.Err() if the
// drain window expires with attempts still running.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	m.cond.Broadcast()
	m.mu.Unlock()
	m.drainStop() // abort backoff sleeps; retrying jobs persist as such

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	if m.cfg.Journal != nil {
		if serr := m.cfg.Journal.Sync(); err == nil {
			err = serr
		}
	}
	return err
}

// workerLoop pulls jobs until drain. The draining check comes before
// the queue check so a drain stops dequeueing even with work pending
// — pending jobs are persisted, not raced to completion.
func (m *Manager) workerLoop() {
	for {
		m.mu.Lock()
		for !m.draining && len(m.queue) == 0 {
			m.cond.Wait()
		}
		if m.draining {
			m.mu.Unlock()
			return
		}
		job := m.queue[0]
		m.queue[0] = nil // so the backing array does not pin a finished job
		m.queue = m.queue[1:]
		m.gaugeQueueLocked()
		queueSpan := job.queueSpan
		job.queueSpan = nil
		enqueued := job.enqueued
		m.mu.Unlock()
		// Close the queue-wait measurement before the first attempt:
		// the span for the trace, the histogram for /metrics (so "is
		// latency queueing or running" is answerable without a trace).
		wait := m.cfg.Now().Sub(enqueued)
		queueSpan.SetAttr("wait_seconds", fmt.Sprintf("%.6f", wait.Seconds()))
		queueSpan.End()
		if r := m.cfg.Registry; r != nil && !enqueued.IsZero() {
			r.Histogram("fiberd_jobs_queue_wait_seconds",
				"Wall-clock time jobs spend between admission and first pickup.",
				obs.TimeBuckets(), nil).Observe(wait.Seconds())
		}
		m.execute(job)
	}
}

// execute drives one job through attempts to a terminal state.
func (m *Manager) execute(job *Job) {
	m.setGaugeRunning(+1)
	defer m.setGaugeRunning(-1)
	key := job.Spec.Key()
	for {
		attempt := m.transitionRunning(job)
		attemptSpan := job.span.StartChild("attempt")
		attemptSpan.SetAttr("attempt", strconv.Itoa(attempt))
		attemptSpan.SetAttr("key", key)
		start := m.cfg.Now()
		res, err := m.runAttempt(job.Spec, attemptSpan)
		m.observeAttempt(m.cfg.Now().Sub(start))
		if err == nil {
			attemptSpan.SetAttr("outcome", "ok")
			attemptSpan.End()
			m.breakerFor(key).Record(true)
			m.setBreakerGauge(key)
			m.transition(job, StateDone, "", &res)
			return
		}
		attemptSpan.SetAttr("outcome", "error")
		attemptSpan.SetAttr("error", err.Error())
		attemptSpan.End()
		m.breakerFor(key).Record(false)
		m.setBreakerGauge(key)
		retries := m.retriesFor(job.Spec)
		if errors.Is(err, ErrTimeout) || attempt > retries {
			m.transition(job, StateFailed, err.Error(), nil)
			return
		}
		m.transition(job, StateRetrying, err.Error(), nil)
		m.count("fiberd_job_retries_total", "Retry attempts scheduled after retryable failures.", nil)
		delay := m.cfg.Backoff.Delay(attempt - 1)
		backoffSpan := job.span.StartChild("backoff")
		backoffSpan.SetAttr("delay_seconds", fmt.Sprintf("%.6f", delay.Seconds()))
		err = Sleep(m.drainCtx, delay)
		backoffSpan.End()
		if err != nil {
			// Draining mid-backoff: the retrying record is already
			// durable; recovery re-queues the job next start.
			return
		}
	}
}

// runAttempt guards one Runner call with the deadline and panic
// isolation. On timeout the attempt goroutine is abandoned — it holds
// only its own stack and exits when the runner returns. The attempt
// span rides the context so the runner can hang child spans (the
// harness-run span) under it.
func (m *Manager) runAttempt(spec Spec, span *obs.Span) (Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), m.cfg.JobTimeout)
	defer cancel()
	ctx = obs.ContextWithSpan(ctx, span)
	type outcome struct {
		res Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{err: fmt.Errorf("panic: %v", r)}
			}
		}()
		res, err := m.cfg.Runner(ctx, spec)
		ch <- outcome{res: res, err: err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-ctx.Done():
		return Result{}, fmt.Errorf("%w after %s", ErrTimeout, m.cfg.JobTimeout)
	}
}

func (m *Manager) retriesFor(spec Spec) int {
	retries := m.cfg.MaxRetries
	if spec.MaxRetries > 0 && spec.MaxRetries < retries {
		retries = spec.MaxRetries
	}
	return retries
}

// transitionRunning bumps the attempt counter and journals the
// running record, returning the attempt number.
func (m *Manager) transitionRunning(job *Job) int {
	m.mu.Lock()
	job.Attempt++
	job.State = StateRunning
	attempt := job.Attempt
	snapshot := *job
	m.mu.Unlock()
	m.append(job.span, Record{
		Schema: JournalSchema, ID: snapshot.ID, State: StateRunning,
		Attempt: attempt, UnixNanos: m.cfg.Now().UnixNano(),
	})
	m.countState(StateRunning)
	m.notify(snapshot)
	return attempt
}

func (m *Manager) transition(job *Job, state State, errText string, res *Result) {
	if state == StateDone && res != nil && m.cfg.Cache != nil && job.hash != "" {
		// Cache the result before the job leaves the singleflight index
		// below, so a duplicate submitted in between finds one or the
		// other instead of running the spec again. Outside m.mu: the
		// cache write may hit disk. A result the cache refuses (e.g.
		// zero runtime fails the perfdb schema) is logged and skipped —
		// duplicates of this spec simply re-run.
		if err := m.cfg.Cache.Put(job.Spec, job.hash, *res, m.cfg.Now()); err != nil {
			m.logf("jobs: result cache put %s: %v", job.ID, err)
			m.count("fiberd_cache_errors_total", "Result-cache writes refused or failed.", nil)
		}
	}
	m.mu.Lock()
	job.State = state
	job.Err = errText
	if res != nil {
		job.Result = res
	}
	if state.Terminal() && job.hash != "" && m.inflight[job.hash] == job {
		// The job leaves the singleflight index: later duplicates hit
		// the result cache (done) or start fresh (failed).
		delete(m.inflight, job.hash)
	}
	snapshot := *job
	m.mu.Unlock()
	m.append(job.span, Record{
		Schema: JournalSchema, ID: snapshot.ID, State: state, Attempt: snapshot.Attempt,
		Err: errText, Result: res, UnixNanos: m.cfg.Now().UnixNano(),
	})
	m.countState(state)
	// Notify before closing the root span: subscribers treat the root
	// span's completion as end-of-stream, so the terminal state event
	// must already be on the wire when it fires.
	m.notify(snapshot)
	if state.Terminal() {
		// The root span closes only after the terminal journal write:
		// the trace's claim "this job is done" must not precede the
		// record that makes it durable.
		job.span.SetAttr("state", string(state))
		job.span.SetAttr("attempts", strconv.Itoa(snapshot.Attempt))
		if errText != "" {
			job.span.SetAttr("error", errText)
		}
		job.span.End()
	}
}

// append journals one record under a "journal-append" child span; a
// journal failure is logged and counted but does not stop execution —
// serving degrades to in-memory state rather than refusing work.
func (m *Manager) append(parent *obs.Span, r Record) {
	if m.cfg.Journal == nil {
		return
	}
	span := parent.StartChild("journal-append")
	span.SetAttr("state", string(r.State))
	err := m.cfg.Journal.Append(r)
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	span.End()
	if err != nil {
		m.logf("jobs: journal append %s/%s: %v", r.ID, r.State, err)
		m.count("fiberd_journal_errors_total", "Journal appends that failed; durability is degraded.", nil)
	}
}

// notify delivers one transition snapshot to the OnTransition hook.
func (m *Manager) notify(job Job) {
	if m.cfg.OnTransition != nil {
		m.cfg.OnTransition(job)
	}
}

func (m *Manager) breakerFor(key string) *Breaker {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.breakers[key]
	if !ok {
		b = &Breaker{
			Threshold: m.cfg.BreakerThreshold,
			Cooldown:  m.cfg.BreakerCooldown,
			Now:       m.cfg.Now,
		}
		m.breakers[key] = b
	}
	return b
}

// observeAttempt records wall latency and refreshes the EWMA behind
// Retry-After.
func (m *Manager) observeAttempt(d time.Duration) {
	sec := d.Seconds()
	m.mu.Lock()
	if m.ewmaSec == 0 {
		m.ewmaSec = sec
	} else {
		m.ewmaSec = 0.8*m.ewmaSec + 0.2*sec
	}
	m.mu.Unlock()
	if r := m.cfg.Registry; r != nil {
		r.Histogram("fiberd_job_seconds", "Wall-clock latency of job attempts.", obs.TimeBuckets(), nil).Observe(sec)
	}
}

func (m *Manager) gaugeQueueLocked() {
	if r := m.cfg.Registry; r != nil {
		r.Gauge("fiberd_jobs_queue_depth", "", nil).Set(float64(len(m.queue)))
	}
}

func (m *Manager) setGaugeRunning(delta int) {
	m.mu.Lock()
	m.running += delta
	n := m.running
	m.mu.Unlock()
	if r := m.cfg.Registry; r != nil {
		r.Gauge("fiberd_jobs_running", "", nil).Set(float64(n))
	}
}

func (m *Manager) setBreakerGauge(key string) {
	if r := m.cfg.Registry; r != nil {
		r.Gauge("fiberd_breaker_state", "Circuit breaker per app|machine key: 0 closed, 1 half-open, 2 open.",
			obs.Labels{"key": key}).Set(float64(m.breakerFor(key).State()))
	}
}

func (m *Manager) countState(s State) {
	m.count("fiberd_jobs_transitions_total", "Job state transitions.", obs.Labels{"state": string(s)})
}

func (m *Manager) countRejected(reason string) {
	m.count("fiberd_jobs_rejected_total", "Submissions refused at admission.", obs.Labels{"reason": reason})
}

func (m *Manager) count(name, help string, labels obs.Labels) {
	if r := m.cfg.Registry; r != nil {
		r.Counter(name, help, labels).Inc()
	}
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}
