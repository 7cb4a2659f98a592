package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fibersim/internal/obs"
)

func validManifest() *obs.Manifest {
	return &obs.Manifest{
		Schema: obs.ManifestSchema,
		App:    "stream",
		Config: obs.RunInfo{
			Machine: "a64fx", Procs: 4, Threads: 12,
			Alloc: "block", Bind: "stride1",
			Compiler: "as-is", Size: "test", Seed: 20210901,
		},
		Verified:    true,
		TimeSeconds: 0.25,
		GFlops:      123.4,
	}
}

func TestValidateAcceptsGoodManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	if err := validManifest().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	if code := runValidate(path, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "valid manifest: stream on a64fx (4x12)") {
		t.Errorf("output = %q", out.String())
	}
}

func TestValidateReportsConsistentFaultBlock(t *testing.T) {
	m := validManifest()
	m.Fault = &obs.FaultSummary{StragglerSeconds: 1.5, NoiseEvents: 10, NoiseSeconds: 0.01}
	path := filepath.Join(t.TempDir(), "run.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	if code := runValidate(path, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "fault block: straggler 1.5s, 10 noise events") {
		t.Errorf("fault summary missing: %q", out.String())
	}
}

// The committed fixture has a fault block claiming 0.5 s of noise
// delay across zero noise events — an inconsistency that used to pass
// validation silently.
func TestValidateRejectsCorruptFaultBlock(t *testing.T) {
	var out, errb strings.Builder
	if code := runValidate(filepath.Join("testdata", "corrupt-fault.json"), &out, &errb); code == 0 {
		t.Fatal("corrupt fault block passed validation")
	}
	if !strings.Contains(errb.String(), "zero noise_events") {
		t.Errorf("stderr should name the inconsistency: %q", errb.String())
	}
}

func TestValidateFailsUnverifiedRun(t *testing.T) {
	m := validManifest()
	m.Verified = false
	m.Check = 0.5
	path := filepath.Join(t.TempDir(), "run.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	if code := runValidate(path, &out, &errb); code != 1 {
		t.Fatalf("unverified run exit = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "did NOT verify") {
		t.Errorf("stderr = %q", errb.String())
	}
}

func TestValidateMissingFile(t *testing.T) {
	var out, errb strings.Builder
	if code := runValidate(filepath.Join(t.TempDir(), "none.json"), &out, &errb); code != 1 {
		t.Fatal("missing file must fail")
	}
}

// exportTrace builds one finished trace under an injected clock and
// writes its fibersim/service-trace/v1 export to a temp file. With
// leaveOpen the root ends while a child is still running, which a
// valid export must flag.
func exportTrace(t *testing.T, leaveOpen bool) string {
	t.Helper()
	clock := time.Unix(1700000000, 0)
	tracer, err := obs.NewTracer(obs.TracerConfig{
		Now:  func() time.Time { clock = clock.Add(time.Millisecond); return clock },
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	root := tracer.StartTrace("job", obs.SpanContext{})
	child := root.StartChild("queue-wait")
	if !leaveOpen {
		child.End()
	}
	root.End()
	tr, ok := tracer.Trace(root.Context().TraceID.String())
	if !ok {
		t.Fatal("trace not stored after root End")
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Encode(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestValidateTraceAcceptsFinishedTrace(t *testing.T) {
	var out, errb strings.Builder
	if code := runValidateTrace(exportTrace(t, false), &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "valid trace") || !strings.Contains(out.String(), "2 spans") {
		t.Errorf("output = %q", out.String())
	}
}

func TestValidateTraceFlagsOpenSpans(t *testing.T) {
	var out, errb strings.Builder
	if code := runValidateTrace(exportTrace(t, true), &out, &errb); code != 1 {
		t.Fatalf("open-span export exit = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "still open") {
		t.Errorf("stderr = %q", errb.String())
	}
}

// selfProfilePath writes one real recorder's profile under an injected
// clock — the same artifact fiberbench -selfprofile emits.
func selfProfilePath(t *testing.T) string {
	t.Helper()
	clock := time.Unix(1700000000, 0)
	cost := obs.NewCostRecorder(func() time.Time { clock = clock.Add(time.Millisecond); return clock })
	cost.Start()
	cost.Finish()
	path := filepath.Join(t.TempDir(), "self.json")
	if err := cost.Profile("stream").WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestValidateSelfProfileAcceptsGoodProfile(t *testing.T) {
	var out, errb strings.Builder
	if code := runValidateSelfProfile(selfProfilePath(t), &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), `valid self-profile "stream"`) {
		t.Errorf("output = %q", out.String())
	}
}

// The committed fixture is a well-formed v2 document that claims a
// negative elapsed time, which validation must reject.
func TestValidateSelfProfileRejectsCorruptFixture(t *testing.T) {
	var out, errb strings.Builder
	if code := runValidateSelfProfile(filepath.Join("testdata", "corrupt-selfprofile.json"), &out, &errb); code == 0 {
		t.Fatal("corrupt self-profile passed validation")
	}
	if !strings.Contains(errb.String(), "elapsed_seconds") {
		t.Errorf("stderr should name the invalid elapsed time: %q", errb.String())
	}
}

func TestValidateSelfProfileRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.json")
	if err := os.WriteFile(path, []byte(`{"schema":"nope"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	if code := runValidateSelfProfile(path, &out, &errb); code != 1 {
		t.Fatal("bad schema must fail")
	}
	if code := runValidateSelfProfile(filepath.Join(t.TempDir(), "none.json"), &out, &errb); code != 1 {
		t.Fatal("missing file must fail")
	}
	// A v1 document, stage sums and all, is not a v2 self-profile.
	v1 := filepath.Join(t.TempDir(), "v1.json")
	if err := os.WriteFile(v1, []byte(`{"schema":"fibersim/self-profile/v1","wall_seconds":0.25,
		"elapsed_seconds":0.3,"stages":[{"stage":"setup","seconds":0.25,"calls":1}],
		"alloc_bytes":1,"allocs":1,"gc_cycles":0,"gc_pause_seconds":0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := runValidateSelfProfile(v1, &out, &errb); code != 1 {
		t.Fatal("a v1 self-profile must fail")
	}
}

func TestValidateTraceRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.json")
	if err := os.WriteFile(path, []byte(`{"schema":"nope"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	if code := runValidateTrace(path, &out, &errb); code != 1 {
		t.Fatal("bad schema must fail")
	}
	if code := runValidateTrace(filepath.Join(t.TempDir(), "none.json"), &out, &errb); code != 1 {
		t.Fatal("missing file must fail")
	}
}
