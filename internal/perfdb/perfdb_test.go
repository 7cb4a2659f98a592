package perfdb

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// rec builds a valid record with the given runtime.
func rec(app string, seconds float64) Record {
	return Record{
		Schema: RecordSchema, App: app, Machine: "a64fx",
		Procs: 4, Threads: 12, Compiler: "as-is", Size: "test",
		TimeSeconds: seconds, GFlops: 10, Verified: true,
		Attribution: map[string]float64{"mem": seconds * 0.8, "compute": seconds * 0.2},
		CommBytes:   1 << 20,
	}
}

func TestKeyShape(t *testing.T) {
	got := rec("stream", 1).Key()
	want := "stream|a64fx|4x12|as-is|test"
	if got != want {
		t.Fatalf("Key() = %q, want %q", got, want)
	}
}

func TestAppendRejectsNonFinite(t *testing.T) {
	tr := &Trajectory{}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := tr.Append(rec("stream", bad)); !errors.Is(err, ErrNonFinite) {
			t.Errorf("Append(time=%g) err = %v, want ErrNonFinite", bad, err)
		}
	}
	r := rec("stream", 1)
	r.Attribution["mem"] = math.NaN()
	if err := tr.Append(r); !errors.Is(err, ErrNonFinite) {
		t.Errorf("Append(attribution NaN) err = %v, want ErrNonFinite", err)
	}
	// Non-finite is a DISTINCT error from other validation failures.
	neg := rec("stream", 1)
	neg.GFlops = -1
	if err := tr.Append(neg); err == nil || errors.Is(err, ErrNonFinite) {
		t.Errorf("Append(gflops=-1) err = %v, want non-ErrNonFinite failure", err)
	}
	if len(tr.Records) != 0 {
		t.Fatalf("rejected records were appended: %d", len(tr.Records))
	}
}

func TestAppendRejectsZeroRuntimeAndBadIdentity(t *testing.T) {
	tr := &Trajectory{}
	z := rec("stream", 0)
	if err := tr.Append(z); err == nil {
		t.Error("zero runtime must be rejected")
	}
	anon := rec("", 1)
	if err := tr.Append(anon); err == nil {
		t.Error("missing app identity must be rejected")
	}
	schema := rec("stream", 1)
	schema.Schema = "wrong"
	if err := tr.Append(schema); err == nil {
		t.Error("wrong schema must be rejected")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	tr, err := Load(path)
	if err != nil {
		t.Fatalf("Load(missing) = %v, want empty trajectory", err)
	}
	if len(tr.Records) != 0 {
		t.Fatal("missing file must load empty")
	}
	if err := tr.Append(rec("stream", 1), rec("stream", 1.1), rec("mvmc", 2)); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != 3 {
		t.Fatalf("reloaded %d records, want 3", len(back.Records))
	}
	if got := back.Records; got[0].TimeSeconds != 1 || got[1].TimeSeconds != 1.1 || got[2].App != "mvmc" {
		t.Fatalf("Records = %+v, want append order", got)
	}
	if keys := back.Keys(); len(keys) != 2 || keys[0] != "mvmc|a64fx|4x12|as-is|test" {
		t.Fatalf("Keys = %v", keys)
	}
	// Appends are one line per record: the file is greppable JSONL.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 3 {
		t.Fatalf("file holds %d lines, want 3", n)
	}
}

func TestLoadRejectsCorruptLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte("{not json}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("corrupt line must fail Load")
	}
	// A structurally valid line with a non-finite-smuggling zero time
	// must also fail validation on load.
	if err := os.WriteFile(path, []byte(`{"schema":"fibersim/bench-record/v1","app":"x","machine":"m","procs":1,"threads":1,"compiler":"as-is","size":"test","time_seconds":0,"gflops":0,"verified":true,"comm_bytes":0}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("invalid record must fail Load")
	}
}

// line renders one record as the JSONL line Append would write.
func line(t *testing.T, r Record) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// TestLoadTruncatesTornTail simulates a kill -9 mid-Append: the final
// line is cut mid-record. Load must keep every complete line, drop the
// fragment, and truncate it away so the next Append starts on a clean
// line boundary instead of corrupting the file.
func TestLoadTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	whole := line(t, rec("stream", 1))
	torn := line(t, rec("stream", 1.1))
	torn = torn[:len(torn)/2] // cut mid-record, no newline
	if err := os.WriteFile(path, []byte(whole+torn), 0o644); err != nil {
		t.Fatal(err)
	}

	tr, err := Load(path)
	if err != nil {
		t.Fatalf("Load(torn tail) = %v, want tolerance", err)
	}
	if len(tr.Records) != 1 || tr.Records[0].TimeSeconds != 1 {
		t.Fatalf("records = %+v, want only the complete line", tr.Records)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != whole {
		t.Fatalf("torn tail not truncated: %q", data)
	}

	// The store keeps working after recovery: append, reload, both rows.
	if err := tr.Append(rec("stream", 2)); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != 2 || back.Records[1].TimeSeconds != 2 {
		t.Fatalf("post-recovery reload = %+v", back.Records)
	}
}

// TestLoadHealsNewlinelessTail covers the narrower crash window where
// the record bytes all reached disk but the trailing newline did not:
// the record is kept and the newline restored in place.
func TestLoadHealsNewlinelessTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	whole := line(t, rec("stream", 1))
	tail := line(t, rec("stream", 1.1))
	tail = tail[:len(tail)-1] // complete record, newline lost
	if err := os.WriteFile(path, []byte(whole+tail), 0o644); err != nil {
		t.Fatal(err)
	}

	tr, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 2 || tr.Records[1].TimeSeconds != 1.1 {
		t.Fatalf("records = %+v, want the newline-less record kept", tr.Records)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != whole+tail+"\n" {
		t.Fatalf("tail not healed: %q", data)
	}
	if back, err := Load(path); err != nil || len(back.Records) != 2 {
		t.Fatalf("healed file reload = %d records, %v", len(back.Records), err)
	}
}

// TestLoadReadOnlyTornTail: a read-only history (e.g. a read-only
// checkout) still loads, tolerating the fragment in memory without
// attempting the on-disk repair.
func TestLoadReadOnlyTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	whole := line(t, rec("stream", 1))
	raw := whole + `{"schema":"fibersim/bench-rec`
	if err := os.WriteFile(path, []byte(raw), 0o444); err != nil {
		t.Fatal(err)
	}
	if os.Geteuid() == 0 {
		t.Skip("root ignores file modes; read-only fallback untestable")
	}
	tr, err := Load(path)
	if err != nil {
		t.Fatalf("Load(read-only torn) = %v", err)
	}
	if len(tr.Records) != 1 {
		t.Fatalf("records = %+v", tr.Records)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != raw {
		t.Error("read-only file was modified")
	}
}

// TestConcurrentAppend hammers one trajectory file from many
// goroutines through independent handles (the fiberbench and CI-gate
// processes do exactly this). O_APPEND with one Write per record means
// lines must interleave whole, never tear: the reloaded store holds
// every record and parses cleanly.
func TestConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := &Trajectory{Path: path}
			for i := 0; i < perWriter; i++ {
				// Distinct times so dropped or duplicated records are
				// distinguishable from torn ones.
				if err := tr.Append(rec("stream", float64(w*perWriter+i+1))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	back, err := Load(path)
	if err != nil {
		t.Fatalf("Load after concurrent appends = %v (torn interleaving?)", err)
	}
	if len(back.Records) != writers*perWriter {
		t.Fatalf("reloaded %d records, want %d", len(back.Records), writers*perWriter)
	}
	seen := map[float64]bool{}
	for _, r := range back.Records {
		if seen[r.TimeSeconds] {
			t.Fatalf("record %g duplicated", r.TimeSeconds)
		}
		seen[r.TimeSeconds] = true
	}
}

func TestDetectEmptyBaselineNeverFails(t *testing.T) {
	f := Detect("k", nil, 123.0, DefaultThresholds())
	if f.Verdict != VerdictNoBaseline {
		t.Fatalf("empty baseline verdict = %v, want no-baseline", f.Verdict)
	}
	if f.Z != 0 || f.Baseline != 0 {
		t.Fatalf("empty baseline finding = %+v", f)
	}
	if len(Regressions([]Finding{f})) != 0 {
		t.Fatal("no-baseline must never gate")
	}
}

func TestDetectSingleSampleBaseline(t *testing.T) {
	th := DefaultThresholds()
	// Identical rerun: MAD is 0, the MinRel floor keeps z at 0.
	f := Detect("k", []float64{1.0}, 1.0, th)
	if f.Verdict != VerdictOK || f.Z != 0 {
		t.Fatalf("identical single-sample rerun = %+v, want ok/z=0", f)
	}
	if f.Scale <= 0 {
		t.Fatalf("single-sample scale = %g, want positive floor", f.Scale)
	}
	// A 2x slowdown against a single sample gates.
	f = Detect("k", []float64{1.0}, 2.0, th)
	if f.Verdict != VerdictRegress {
		t.Fatalf("2x slowdown vs single sample = %+v, want regress", f)
	}
	// And a 2x speedup is an improvement, not a regression.
	f = Detect("k", []float64{1.0}, 0.5, th)
	if f.Verdict != VerdictImprove {
		t.Fatalf("2x speedup vs single sample = %+v, want improve", f)
	}
}

func TestDetectDirectionAndWindow(t *testing.T) {
	th := Thresholds{Window: 5, Z: 4, MinRel: 0.02}
	// Ancient slow history outside the window must not mask a regression
	// against the recent baseline.
	baseline := []float64{10, 10, 10, 1, 1, 1, 1, 1}
	f := Detect("k", baseline, 2.0, th)
	if f.Baseline != 5 {
		t.Fatalf("window not applied: consulted %d samples", f.Baseline)
	}
	if f.Verdict != VerdictRegress {
		t.Fatalf("recent-window regression missed: %+v", f)
	}
	// Small jitter within the floor stays ok.
	f = Detect("k", []float64{1, 1, 1, 1, 1}, 1.01, th)
	if f.Verdict != VerdictOK {
		t.Fatalf("1%% jitter flagged: %+v", f)
	}
}

func TestDetectNoisyBaselineUsesMAD(t *testing.T) {
	// A baseline with genuine spread widens the band beyond MinRel.
	baseline := []float64{1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.05, 0.95}
	th := DefaultThresholds()
	f := Detect("k", baseline, 1.25, th)
	if f.Verdict != VerdictOK {
		t.Fatalf("sample inside the noise band flagged: %+v", f)
	}
	f = Detect("k", baseline, 3.0, th)
	if f.Verdict != VerdictRegress {
		t.Fatalf("3x the median of a noisy baseline must regress: %+v", f)
	}
	if f.MAD <= 0 {
		t.Fatalf("noisy baseline MAD = %g, want positive", f.MAD)
	}
}

// TestTrajectoryCheck scores one host-cost metric of fresh records
// against the trajectory: one finding per fresh record that has a
// reading, in input order, keyed with the metric's name. A zero
// reading (a record from before self-observability) neither joins a
// baseline nor gets a finding.
func TestTrajectoryCheck(t *testing.T) {
	withWall := func(app string, wall float64) Record {
		r := rec(app, 1)
		r.WallSeconds = wall
		return r
	}
	tr := &Trajectory{}
	for i := 0; i < 3; i++ {
		if err := tr.Append(withWall("stream", 1.0), withWall("mvmc", 2.0), withWall("ffb", 0)); err != nil {
			t.Fatal(err)
		}
	}
	fresh := []Record{withWall("stream", 1.0), withWall("mvmc", 4.0), withWall("ngsa", 0), withWall("ffb", 3.0)}
	fs := tr.CheckMetric(fresh, "wall", func(r Record) float64 { return r.WallSeconds }, DefaultThresholds())
	want := []struct {
		key     string
		verdict Verdict
	}{
		{fresh[0].Key() + "#wall", VerdictOK},
		{fresh[1].Key() + "#wall", VerdictRegress},
		{fresh[3].Key() + "#wall", VerdictNoBaseline},
	}
	if len(fs) != len(want) {
		t.Fatalf("got %d findings, want %d: %+v", len(fs), len(want), fs)
	}
	for i, w := range want {
		if fs[i].Key != w.key || fs[i].Verdict != w.verdict {
			t.Errorf("finding %d = %s %v, want %s %v", i, fs[i].Key, fs[i].Verdict, w.key, w.verdict)
		}
	}
	if got := Regressions(fs); len(got) != 1 || got[0].Key != want[1].key {
		t.Fatalf("Regressions = %+v", got)
	}
}

func TestMedianAndMAD(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g", m)
	}
	if m := Median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("even median = %g", m)
	}
	if m := Median(nil); m != 0 {
		t.Errorf("empty median = %g", m)
	}
	if d := MAD([]float64{1, 1, 1}, 1); d != 0 {
		t.Errorf("quiet MAD = %g", d)
	}
	if d := MAD([]float64{1, 2, 3}, 2); d != 1 {
		t.Errorf("MAD = %g, want 1", d)
	}
}
