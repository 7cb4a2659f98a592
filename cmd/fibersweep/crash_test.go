package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"fibersim/internal/obs"
)

// The crash test re-executes this test binary as the fibersweep
// command (the helper-process idiom). childStopEnv marks the child and
// names the checkpoint row it stops at (0 runs the sweep to the end);
// childTornEnv holds bytes the child appends to the checkpoint at that
// row before it stops.
const (
	childStopEnv = "FIBERSWEEP_TEST_CHILD_STOP_AT"
	childTornEnv = "FIBERSWEEP_TEST_CHILD_TORN"
)

// TestMain runs main instead of the tests in a child. A child with a
// positive stop row announces that row on stdout once it is
// checkpointed, then blocks until the parent kills it.
func TestMain(m *testing.M) {
	stop, child := os.LookupEnv(childStopEnv)
	if !child {
		os.Exit(m.Run())
	}
	if k, _ := strconv.Atoi(stop); k > 0 {
		torn := os.Getenv(childTornEnv)
		afterCheckpoint = func(s *sweepState) {
			if len(s.done) != k {
				return
			}
			if _, err := s.f.WriteString(torn); err != nil {
				fatal(err)
			}
			fmt.Printf("checkpointed %d\n", k)
			// Wait for SIGKILL; a parent that died first closes stdin.
			_, _ = io.Copy(io.Discard, os.Stdin)
			os.Exit(2)
		}
	}
	main()
	os.Exit(0)
}

// crashSweepArgs is a 24-row sweep under a fault schedule: two apps,
// six decompositions, two compilers. Faulted runs always execute, so
// every row of every child is real work.
var crashSweepArgs = []string{
	"-app", "stream,mvmc", "-size", "test", "-compilers", "as-is,tuned",
	"-fault", "seed=7,straggler=0:1.3,noise=500us:50us", "-csv",
}

const crashSweepRows = 24

func sweepChild(stopAt int, torn string, args []string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], append(append([]string(nil), crashSweepArgs...), args...)...)
	cmd.Env = append(os.Environ(), childStopEnv+"="+strconv.Itoa(stopAt), childTornEnv+"="+torn)
	return cmd
}

// runSweep runs a child sweep to its exit and returns its stdout,
// stderr and exit code.
func runSweep(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := sweepChild(0, "", args)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("sweep %v: %v", args, err)
	}
	return out.String(), errb.String(), code
}

// killSweepAt runs a child sweep until it has checkpointed k rows (and
// appended torn), then kills it with SIGKILL.
func killSweepAt(t *testing.T, k int, torn string, args ...string) {
	t.Helper()
	cmd := sweepChild(k, torn, args)
	var errb bytes.Buffer
	cmd.Stderr = &errb
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	defer stdin.Close()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	line, readErr := bufio.NewReader(stdout).ReadString('\n')
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	if want := fmt.Sprintf("checkpointed %d\n", k); readErr != nil || line != want {
		t.Fatalf("child announced %q (%v), want %q; exit %v, stderr:\n%s", line, readErr, want, err, errb.String())
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != -1 {
		t.Fatalf("child exit = %v, want killed by a signal", err)
	}
}

// checkpointLines returns the checkpoint's complete lines and any
// unterminated tail.
func checkpointLines(t *testing.T, path string) (lines []string, tail string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	parts := strings.Split(string(b), "\n")
	return parts[:len(parts)-1], parts[len(parts)-1]
}

// TestSweepResumesAfterSIGKILL pins fibersweep's crash contract: a
// sweep stopped by -max-runs, killed with SIGKILL after a checkpointed
// row, and killed again with a half-written row, resumes to the CSV of
// an uninterrupted sweep, byte for byte. The final resume must report
// exactly the checkpointed rows as resumed: CSV equality alone cannot
// tell a resume from a sweep that ignored its checkpoint, and one more
// resumed row would mean the torn row was taken as done.
func TestSweepResumesAfterSIGKILL(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.state")
	wantCSV, stderr, code := runSweep(t, "-resume", ref)
	if code != 0 {
		t.Fatalf("reference sweep exit %d:\n%s", code, stderr)
	}
	refLines, _ := checkpointLines(t, ref)
	if len(refLines) != crashSweepRows {
		t.Fatalf("reference checkpoint has %d rows, want %d", len(refLines), crashSweepRows)
	}

	state := filepath.Join(dir, "sweep.state")
	if _, stderr, code := runSweep(t, "-resume", state, "-max-runs", "3"); code != 3 {
		t.Fatalf("-max-runs 3 exit %d, want 3:\n%s", code, stderr)
	}
	if lines, _ := checkpointLines(t, state); len(lines) != 3 {
		t.Fatalf("after -max-runs 3 the checkpoint has %d rows, want 3", len(lines))
	}

	const k1, k2 = 8, 15
	killSweepAt(t, k1, "", "-resume", state)
	if lines, tail := checkpointLines(t, state); len(lines) != k1 || tail != "" {
		t.Fatalf("after the first kill the checkpoint has %d rows and tail %q, want %d and none", len(lines), tail, k1)
	}
	// The second child tears the row after its stop: half of exactly
	// the line an uninterrupted sweep writes there.
	torn := refLines[k2][:len(refLines[k2])/2]
	killSweepAt(t, k2, torn, "-resume", state)
	if lines, tail := checkpointLines(t, state); len(lines) != k2 || tail != torn {
		t.Fatalf("after the second kill the checkpoint has %d rows and tail %q, want %d and %q", len(lines), tail, k2, torn)
	}

	profiles := filepath.Join(dir, "profiles")
	gotCSV, stderr, code := runSweep(t, "-resume", state, "-progress", "-selfprofile", profiles)
	if code != 0 {
		t.Fatalf("resumed sweep exit %d:\n%s", code, stderr)
	}
	if gotCSV != wantCSV {
		t.Errorf("resumed CSV differs from the uninterrupted sweep's:\n--- resumed ---\n%s--- uninterrupted ---\n%s", gotCSV, wantCSV)
	}
	if !strings.Contains(stderr, "dropping torn final line") {
		t.Errorf("resume did not report the torn row:\n%s", stderr)
	}
	var rows, resumed int
	for _, line := range strings.Split(stderr, "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var p obs.SweepProgress
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			t.Fatalf("progress line %q: %v", line, err)
		}
		rows++
		if p.Resumed {
			resumed++
			continue
		}
		// A fresh row's wall time is its cell's measured elapsed time.
		self, err := obs.ReadSelfProfileFile(filepath.Join(profiles, fmt.Sprintf("selfprofile-%s-%s-%dx%d-%s.json",
			p.App, p.Machine, p.Procs, p.Threads, sanitize(p.Compiler))))
		if err != nil {
			t.Fatal(err)
		}
		if p.WallSeconds != self.ElapsedSeconds || p.WallSeconds <= 0 {
			t.Errorf("%s %dx%d %s: progress wall_seconds %g, self-profile elapsed_seconds %g",
				p.App, p.Procs, p.Threads, p.Compiler, p.WallSeconds, self.ElapsedSeconds)
		}
	}
	if rows != crashSweepRows || resumed != k2 {
		t.Errorf("resume reported %d rows with %d resumed, want %d with %d", rows, resumed, crashSweepRows, k2)
	}
}
