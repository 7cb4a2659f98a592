package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"fibersim/internal/obs"
	"fibersim/internal/perfdb"
)

// record then check on an unchanged tree: every run verifies and no
// allocation count regresses, so the gate passes. The host wall-clock
// gate is off: against a one-record baseline, a ms-scale cell slowed
// by a loaded host would fail it; TestWallGateFlagsOnlyTheVictim
// covers that gate.
func TestRecordThenCheckCleanGate(t *testing.T) {
	traj := filepath.Join(t.TempDir(), "bench.json")
	var out, errb bytes.Buffer

	code := run([]string{"record", "-trajectory", traj, "-size", "test",
		"-apps", "stream", "-rev", "r1"}, &out, &errb)
	if code != 0 {
		t.Fatalf("record exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "appended 6 records") {
		t.Errorf("stream-only grid should append 6 records (3 decomps x 2 compilers): %s", out.String())
	}

	out.Reset()
	errb.Reset()
	code = run([]string{"check", "-trajectory", traj, "-size", "test",
		"-apps", "stream", "-rev", "r2", "-wall-min-rel", "0"}, &out, &errb)
	if code != 0 {
		t.Fatalf("unchanged tree failed the gate (exit %d)\nstdout: %s\nstderr: %s",
			code, out.String(), errb.String())
	}
	if want := "gate clean: 6 cells checked"; !strings.Contains(out.String(), want) {
		t.Errorf("clean gate should say %q: %s", want, out.String())
	}
	if want := "0 of 6 host-cost samples no-baseline"; !strings.Contains(out.String(), want) {
		t.Errorf("every allocation sample has a baseline, want %q: %s", want, out.String())
	}
}

// TestWallGateFlagsOnlyTheVictim pins the host wall-clock gate's
// wiring without timing anything: every baseline record's wall time is
// scaled by 1e6, so no fresh run can look slower, except the victim's,
// scaled by 1e-6, which any fresh run exceeds about a millionfold.
// Exactly one #wall regression must name the victim.
func TestWallGateFlagsOnlyTheVictim(t *testing.T) {
	traj := filepath.Join(t.TempDir(), "bench.json")
	var out, errb bytes.Buffer
	if code := run([]string{"record", "-trajectory", traj, "-size", "test",
		"-apps", "stream", "-rev", "r1"}, &out, &errb); code != 0 {
		t.Fatalf("record exit %d: %s", code, errb.String())
	}
	loaded, err := perfdb.Load(traj)
	if err != nil {
		t.Fatal(err)
	}
	victim := loaded.Records[0].Key()
	scaled := &perfdb.Trajectory{Path: filepath.Join(t.TempDir(), "scaled.json")}
	for _, r := range loaded.Records {
		if r.Key() == victim {
			r.WallSeconds *= 1e-6
		} else {
			r.WallSeconds *= 1e6
		}
		if err := scaled.Append(r); err != nil {
			t.Fatal(err)
		}
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"check", "-trajectory", scaled.Path, "-size", "test",
		"-apps", "stream", "-rev", "r2"}, &out, &errb); code == 0 {
		t.Fatalf("wall regression in %s passed the gate\nstdout: %s", victim, out.String())
	}
	var walls []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "REGRESS") && strings.Contains(line, "#wall") {
			walls = append(walls, line)
		}
	}
	if len(walls) != 1 || !strings.Contains(walls[0], victim+"#wall") {
		t.Errorf("want exactly one #wall REGRESS naming %s, got %q:\n%s", victim, walls, out.String())
	}
}

// check against an empty trajectory reports every sample as
// no-baseline and passes: the first recorded revision can never fail
// the gate.
func TestCheckEmptyTrajectoryPasses(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"check", "-trajectory", filepath.Join(t.TempDir(), "none.json"),
		"-size", "test", "-apps", "stream"}, &out, &errb)
	if code != 0 {
		t.Fatalf("empty baseline failed the gate (exit %d): %s", code, errb.String())
	}
	if want := "12 of 12 host-cost samples no-baseline"; !strings.Contains(out.String(), want) {
		t.Errorf("want %q:\n%s", want, out.String())
	}
}

func testManifest() *obs.Manifest {
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
		Profile: obs.Profile{
			Kernels: []obs.KernelProfile{{
				Kernel: "triad", Calls: 40, Seconds: 4e-3,
				Attribution: obs.Attribution{Compute: 1e-3, Mem: 3e-3},
				Dominant:    "mem", Category: "memory",
			}},
		},
	}
}

func TestDiffSubcommand(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	if err := testManifest().WriteFile(oldPath); err != nil {
		t.Fatal(err)
	}
	m := testManifest()
	m.TimeSeconds = 0.5
	m.Profile.Kernels[0].Seconds = 8e-3
	m.Profile.Kernels[0].Attribution = obs.Attribution{Compute: 6e-3, Mem: 2e-3}
	m.Profile.Kernels[0].Dominant = "compute"
	m.Profile.Kernels[0].Category = "compute"
	if err := m.WriteFile(newPath); err != nil {
		t.Fatal(err)
	}

	var out, errb bytes.Buffer
	if code := run([]string{"diff", oldPath, newPath}, &out, &errb); code != 0 {
		t.Fatalf("diff exit: %s", errb.String())
	}
	for _, want := range []string{"2.000x", "mem->compute FLIP"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("diff report missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if code := run([]string{"diff", "-json", oldPath, newPath}, &out, &errb); code != 0 {
		t.Fatalf("diff -json exit: %s", errb.String())
	}
	if !strings.Contains(out.String(), obs.DiffSchema) {
		t.Errorf("JSON diff missing schema tag:\n%s", out.String())
	}

	if code := run([]string{"diff", oldPath}, &out, &errb); code != 2 {
		t.Error("diff with one argument must be a usage error")
	}
}

func TestUsageAndBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Error("no args must be a usage error")
	}
	if code := run([]string{"frobnicate"}, &out, &errb); code != 2 {
		t.Error("unknown subcommand must be a usage error")
	}
	if code := run([]string{"check", "-z", "high"}, &out, &errb); code != 2 {
		t.Error("bad -z must be a usage error")
	}
	if code := run([]string{"record", "-size", "galactic"}, &out, &errb); code != 2 {
		t.Error("bad -size must be a usage error")
	}
	if code := run([]string{"record", "-apps", "nosuchapp"}, &out, &errb); code != 2 {
		t.Error("unknown -apps must be a usage error")
	}
}
