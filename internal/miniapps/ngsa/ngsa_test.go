package ngsa

import (
	"bytes"
	"runtime"
	"testing"

	"fibersim/internal/core"
	"fibersim/internal/miniapps/common"
)

func TestGenomeDeterministic(t *testing.T) {
	a := NewGenome(5000, 42)
	b := NewGenome(5000, 42)
	if !bytes.Equal(a.Ref, b.Ref) || !bytes.Equal(a.Donor, b.Donor) {
		t.Fatal("genome generation not deterministic")
	}
	if len(a.SNPs) != 5 {
		t.Errorf("planted %d SNPs, want 5", len(a.SNPs))
	}
	for pos, donorBase := range a.SNPs {
		if a.Ref[pos] == donorBase {
			t.Error("SNP equals reference base")
		}
		if a.Donor[pos] != donorBase {
			t.Error("donor does not carry the SNP")
		}
	}
}

func TestMakeReadFromDonor(t *testing.T) {
	g := NewGenome(5000, 7)
	for i := 0; i < 20; i++ {
		r := g.MakeRead(i, 7)
		if len(r.Seq) != readLen {
			t.Fatalf("read length %d", len(r.Seq))
		}
		// Most bases must match the donor at the true position (errors
		// are rare).
		mismatches := 0
		for j := 0; j < readLen; j++ {
			if r.Seq[j] != g.Donor[r.TruePos+j] {
				mismatches++
			}
		}
		if mismatches > readLen/5 {
			t.Errorf("read %d has %d mismatches to its origin", i, mismatches)
		}
	}
}

func TestKmerCode(t *testing.T) {
	code1, ok := kmerCode([]byte("ACGTACGTACGTACGT"))
	if !ok {
		t.Fatal("valid k-mer rejected")
	}
	code2, _ := kmerCode([]byte("ACGTACGTACGTACGA"))
	if code1 == code2 {
		t.Error("distinct k-mers collide")
	}
	if _, ok := kmerCode([]byte("ACGT")); ok {
		t.Error("short window accepted")
	}
	if _, ok := kmerCode([]byte("ACGTACGTACGTACGN")); ok {
		t.Error("invalid base accepted")
	}
}

func TestIndexFindsExactSubstrings(t *testing.T) {
	g := NewGenome(5000, 9)
	idx := NewIndex(g.Ref)
	// A read copied verbatim from the reference must produce its true
	// position among candidates.
	for _, pos := range []int{0, 100, 2500, 4900 - readLen} {
		read := g.Ref[pos : pos+readLen]
		found := false
		for _, c := range idx.Candidates(read) {
			if c == pos {
				found = true
			}
		}
		if !found {
			t.Errorf("position %d not among candidates", pos)
		}
	}
}

func TestBandedSWScoresPerfectMatch(t *testing.T) {
	read := []byte("ACGTACGTACGTACGTACGT")
	score, cells := BandedSW(read, read)
	if score != len(read)*matchSc {
		t.Errorf("perfect match score %d, want %d", score, len(read)*matchSc)
	}
	if cells <= 0 {
		t.Error("no cells evaluated")
	}
	// A mismatch reduces the score.
	mut := append([]byte(nil), read...)
	mut[10] = 'A'
	if mut[10] == read[10] {
		mut[10] = 'C'
	}
	mscore, _ := BandedSW(mut, read)
	if mscore >= score {
		t.Errorf("mismatch score %d should be below %d", mscore, score)
	}
}

func TestAlignRecoversTruePosition(t *testing.T) {
	g := NewGenome(8000, 11)
	idx := NewIndex(g.Ref)
	hits, total := 0, 0
	for i := 0; i < 50; i++ {
		r := g.MakeRead(i, 11)
		res, _ := Align(idx, g.Ref, r.Seq)
		if !res.OK {
			continue
		}
		total++
		if res.Pos == r.TruePos {
			hits++
		}
	}
	if total < 40 {
		t.Errorf("only %d/50 reads aligned", total)
	}
	if hits < total*9/10 {
		t.Errorf("only %d/%d aligned reads at true position", hits, total)
	}
}

func TestRunCallsSNPs(t *testing.T) {
	res, err := App{}.Run(common.RunConfig{Procs: 2, Threads: 4, Size: common.SizeTest})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("SNP calling failed: recall %g", res.Check)
	}
	if res.Figure <= 0 {
		t.Error("missing throughput figure")
	}
}

func TestDecompositionInvariance(t *testing.T) {
	// Pileup counts are integers; the reduced counts and therefore the
	// called SNP set must be identical for every decomposition.
	var recalls []float64
	for _, pt := range [][2]int{{1, 4}, {2, 2}, {4, 1}} {
		res, err := App{}.Run(common.RunConfig{Procs: pt[0], Threads: pt[1], Size: common.SizeTest})
		if err != nil {
			t.Fatalf("%v: %v", pt, err)
		}
		recalls = append(recalls, res.Check)
	}
	for i := 1; i < len(recalls); i++ {
		if recalls[i] != recalls[0] {
			t.Errorf("recall differs across decompositions: %v", recalls)
		}
	}
}

func TestKernelsAreBranchy(t *testing.T) {
	a := common.MustLookup("ngsa")
	ks := a.Kernels(common.SizeSmall)
	if len(ks) != 3 {
		t.Fatalf("want 3 kernels")
	}
	for _, k := range ks {
		if err := k.Validate(); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
	}
	if ks[0].NonFPFrac < 0.5 || ks[0].AutoVecFrac > 0.1 {
		t.Error("smith-waterman kernel should be integer/branch dominated, barely vectorized as-is")
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReplayBuildsNoReference checks that a replayed launch skips the
// host-side set-up: replaying a recorded run allocates less than
// building its k-mer index alone would.
func TestReplayBuildsNoReference(t *testing.T) {
	const seed = 11
	cfg := common.RunConfig{Procs: 2, Threads: 2, Size: common.SizeTest, Seed: seed}
	if _, err := (App{}).Run(cfg); err != nil { // records the launch
		t.Fatal(err)
	}
	cfg.Compiler = core.Tuned()
	var err error
	replay := allocated(func() { _, err = App{}.Run(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	index := allocated(func() { NewIndex(NewGenome(genomeFor(common.SizeTest), seed).Ref) })
	t.Logf("replay %d B, index build %d B", replay, index)
	if replay >= index {
		t.Errorf("a replay allocated %d B, not less than the %d B of one index build", replay, index)
	}
}
