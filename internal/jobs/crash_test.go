package jobs

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"testing"
	"time"
)

// The crash test re-executes this test binary as a daemon's life (the
// helper-process idiom): crashJournalEnv marks the child and names its
// journal, crashAtEnv the job whose running transition it stops at.
const (
	crashJournalEnv = "JOBS_TEST_CRASH_JOURNAL"
	crashAtEnv      = "JOBS_TEST_CRASH_AT"
	crashJobs       = 6
)

func TestMain(m *testing.M) {
	path, child := os.LookupEnv(crashJournalEnv)
	if !child {
		os.Exit(m.Run())
	}
	k, _ := strconv.Atoi(os.Getenv(crashAtEnv))
	fmt.Fprintln(os.Stderr, crashChild(path, k))
	os.Exit(1)
}

// crashChild accepts crashJobs jobs on the journal at path, then runs
// them on one worker with a stub runner, so nothing replays or finishes
// early. When job k enters running it announces that on stdout and
// blocks until the parent kills it. It returns only on failure.
func crashChild(path string, k int) error {
	j, _, err := OpenJournal(path)
	if err != nil {
		return err
	}
	stop := fmt.Sprintf("job-%06d", k)
	cfg := testConfig(okRunner)
	cfg.Workers = 1
	cfg.Journal = j
	cfg.OnTransition = func(job Job) {
		if job.ID == stop && job.State == StateRunning {
			fmt.Println("running", job.ID)
			// Wait for SIGKILL; a parent that died first closes stdin.
			_, _ = io.Copy(io.Discard, os.Stdin)
			os.Exit(2)
		}
	}
	m, err := NewManager(cfg)
	if err != nil {
		return err
	}
	for i := 0; i < crashJobs; i++ {
		if _, err := m.Submit(Spec{App: fmt.Sprintf("app-%d", i)}); err != nil {
			return err
		}
	}
	m.Start()
	for {
		done := 0
		for _, job := range m.Jobs(0) {
			if job.State.Terminal() {
				done++
			}
		}
		if done == crashJobs {
			return fmt.Errorf("all %d jobs finished; %s never stopped the daemon", crashJobs, stop)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJournalRecoversAfterSIGKILL pins the job service's crash
// contract: SIGKILL a daemon while job k runs, recover a fresh manager
// from the same journal, and every accepted job reaches exactly one
// terminal record, with the jobs that were in flight re-run once each.
func TestJournalRecoversAfterSIGKILL(t *testing.T) {
	path := tmpJournal(t)
	const k = 3
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), crashJournalEnv+"="+path, crashAtEnv+"="+strconv.Itoa(k))
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	defer stdin.Close()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	line, readErr := bufio.NewReader(stdout).ReadString('\n')
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	if want := fmt.Sprintf("running job-%06d\n", k); readErr != nil || line != want {
		t.Fatalf("child announced %q (%v), want %q; exit %v, stderr:\n%s", line, readErr, want, err, stderr.String())
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != -1 {
		t.Fatalf("child exit = %v, want killed by a signal", err)
	}

	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	ran := map[string]int{}
	cfg := testConfig(func(ctx context.Context, spec Spec) (Result, error) {
		mu.Lock()
		ran[spec.App]++
		mu.Unlock()
		return Result{TimeSeconds: 1, Verified: true}, nil
	})
	cfg.Journal = j
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Recover(recs)
	m.Start()
	for i := 1; i <= crashJobs; i++ {
		waitTerminal(t, m, fmt.Sprintf("job-%06d", i))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, recs, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	accepted, terminal := map[string]bool{}, map[string]int{}
	for _, r := range recs {
		if r.State == StateAccepted {
			accepted[r.ID] = true
		}
		if r.State.Terminal() {
			terminal[r.ID]++
		}
	}
	if len(accepted) != crashJobs {
		t.Fatalf("journal accepted %d jobs, want %d", len(accepted), crashJobs)
	}
	for id := range accepted {
		if terminal[id] != 1 {
			t.Errorf("job %s has %d terminal records, want exactly 1", id, terminal[id])
		}
	}
	// Jobs 1..k-1 finished before the kill; k was running and the rest
	// queued, so recovery re-runs each of those exactly once.
	if want := crashJobs - k + 1; len(ran) != want {
		t.Errorf("recovery re-ran %d jobs (%v), want %d", len(ran), ran, want)
	}
	for app, n := range ran {
		if n != 1 {
			t.Errorf("recovery ran %s %d times, want once", app, n)
		}
	}
}
