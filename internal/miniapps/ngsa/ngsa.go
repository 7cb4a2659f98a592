// Package ngsa reproduces the NGS Analyzer miniapp (RIKEN): a genome
// resequencing pipeline. A synthetic reference genome with planted
// SNPs plays the role of the proprietary patient data the original
// miniapp ships (see DESIGN.md): reads are sampled from the donor
// sequence with sequencing errors, aligned back to the reference with
// k-mer seeding plus banded Smith-Waterman scoring, and piled up to
// call SNPs. Verification measures recall/precision of the planted
// SNPs — the end-to-end answer of the real pipeline.
//
// The workload is integer- and branch-dominated with data-dependent
// access (hash lookups, DP recurrences), which is exactly why the
// paper finds it running poorly "as-is" on the A64FX.
package ngsa

import (
	"fmt"
	"sync"

	"fibersim/internal/core"
	"fibersim/internal/miniapps/common"
	"fibersim/internal/mpi"
	"fibersim/internal/omp"
)

const (
	readLen    = 80
	kmerLen    = 16
	coverage   = 8
	snpRate    = 1.0 / 1000
	errRate    = 0.005
	band       = 4 // Smith-Waterman band half-width
	matchSc    = 2
	mismatchSc = -1
	gapSc      = -2
)

var bases = [4]byte{'A', 'C', 'G', 'T'}

// Genome bundles the reference, the donor (reference + SNPs) and the
// planted truth set.
type Genome struct {
	Ref, Donor []byte
	SNPs       map[int]byte // position -> donor base
}

// NewGenome builds a deterministic genome of length g.
func NewGenome(g int, seed int64) *Genome {
	r := common.NewRNG(seed)
	gen := &Genome{
		Ref:  make([]byte, g),
		SNPs: map[int]byte{},
	}
	for i := range gen.Ref {
		gen.Ref[i] = bases[r.Intn(4)]
	}
	gen.Donor = append([]byte(nil), gen.Ref...)
	nSNP := int(float64(g) * snpRate)
	for len(gen.SNPs) < nSNP {
		pos := r.Intn(g - 2*readLen)
		pos += readLen / 2 // keep SNPs coverable by reads
		if _, dup := gen.SNPs[pos]; dup {
			continue
		}
		b := bases[r.Intn(4)]
		for b == gen.Ref[pos] {
			b = bases[r.Intn(4)]
		}
		gen.SNPs[pos] = b
		gen.Donor[pos] = b
	}
	return gen
}

// Read is one sequencing read with its true origin (for tests only).
type Read struct {
	Seq     []byte
	TruePos int
}

// MakeRead deterministically samples read i from the donor.
func (g *Genome) MakeRead(i int, seed int64) Read {
	mix := uint64(seed) ^ uint64(i)*0x9E3779B97F4A7C15
	r := common.NewRNG(int64(mix | 1))
	pos := r.Intn(len(g.Donor) - readLen)
	seq := make([]byte, readLen)
	copy(seq, g.Donor[pos:pos+readLen])
	for j := range seq {
		if r.Float64() < errRate {
			seq[j] = bases[r.Intn(4)]
		}
	}
	return Read{Seq: seq, TruePos: pos}
}

// Index is the reference k-mer index.
type Index struct {
	m map[uint64][]int32
}

// kmerCode packs a k-mer into 2 bits per base; ok reports whether the
// window is valid.
func kmerCode(s []byte) (uint64, bool) {
	if len(s) < kmerLen {
		return 0, false
	}
	var code uint64
	for i := 0; i < kmerLen; i++ {
		var b uint64
		switch s[i] {
		case 'A':
			b = 0
		case 'C':
			b = 1
		case 'G':
			b = 2
		case 'T':
			b = 3
		default:
			return 0, false
		}
		code = code<<2 | b
	}
	return code, true
}

// NewIndex indexes every k-mer position of the reference.
func NewIndex(ref []byte) *Index {
	idx := &Index{m: map[uint64][]int32{}}
	for i := 0; i+kmerLen <= len(ref); i++ {
		if code, ok := kmerCode(ref[i:]); ok {
			idx.m[code] = append(idx.m[code], int32(i))
		}
	}
	return idx
}

// Candidates returns alignment start candidates for a read by seeding
// k-mers at a few fixed offsets.
func (idx *Index) Candidates(read []byte) []int {
	seen := map[int]bool{}
	var out []int
	for _, off := range [4]int{0, 21, 42, readLen - kmerLen} {
		code, ok := kmerCode(read[off:])
		if !ok {
			continue
		}
		for _, p := range idx.m[code] {
			start := int(p) - off
			if start >= 0 && !seen[start] {
				seen[start] = true
				out = append(out, start)
			}
		}
	}
	return out
}

// BandedSW scores read against ref[start:start+readLen+band] with a
// banded Smith-Waterman (linear gaps) and returns the best local score
// and the number of DP cells evaluated.
func BandedSW(read, ref []byte) (int, int) {
	n := len(read)
	m := len(ref)
	prev := make([]int, m+1)
	cur := make([]int, m+1)
	best := 0
	cells := 0
	for i := 1; i <= n; i++ {
		lo := i - band
		if lo < 1 {
			lo = 1
		}
		hi := i + band
		if hi > m {
			hi = m
		}
		if lo > hi {
			// Band entirely past the reference end: nothing to score on
			// this row (short references under a long read).
			prev, cur = cur, prev
			continue
		}
		cur[lo-1] = 0
		for j := lo; j <= hi; j++ {
			sc := mismatchSc
			if read[i-1] == ref[j-1] {
				sc = matchSc
			}
			v := prev[j-1] + sc
			if up := prev[j] + gapSc; up > v {
				v = up
			}
			if left := cur[j-1] + gapSc; left > v {
				v = left
			}
			if v < 0 {
				v = 0
			}
			cur[j] = v
			if v > best {
				best = v
			}
			cells++
		}
		if hi < m {
			cur[hi+1] = 0
		}
		prev, cur = cur, prev
	}
	return best, cells
}

// AlignResult is the chosen position for a read.
type AlignResult struct {
	Pos   int
	Score int
	OK    bool
}

// Align maps one read: seed, score candidates, accept the best if it
// clears the threshold.
func Align(idx *Index, ref []byte, read []byte) (AlignResult, int) {
	cands := idx.Candidates(read)
	bestScore, bestPos := 0, -1
	cells := 0
	for _, start := range cands {
		end := start + readLen + band
		if end > len(ref) {
			end = len(ref)
		}
		if start >= end {
			continue
		}
		sc, c := BandedSW(read, ref[start:end])
		cells += c
		if sc > bestScore {
			bestScore, bestPos = sc, start
		}
	}
	// Threshold: at least 80% of the perfect score.
	if bestPos >= 0 && bestScore >= readLen*matchSc*8/10 {
		return AlignResult{Pos: bestPos, Score: bestScore, OK: true}, cells
	}
	return AlignResult{}, cells
}

// kernels

func swKernel(reads int) core.Kernel {
	return core.MustKernel(core.Kernel{
		Name:              "smith-waterman",
		FlopsPerIter:      6, // ops per DP cell (integer adds/max)
		FMAFrac:           0,
		LoadBytesPerIter:  20,
		StoreBytesPerIter: 8,
		VectorizableFrac:  0.6,  // striped SW vectorizes with effort
		AutoVecFrac:       0.05, // as-is: branchy DP defeats the compiler
		DepChainPenalty:   1.8,  // DP recurrence
		NonFPFrac:         0.7,
		Pattern:           core.PatternStrided,
		WorkingSetBytes:   int64(reads) * readLen,
	})
}

func seedKernel(reads int) core.Kernel {
	return core.MustKernel(core.Kernel{
		Name:             "kmer-seed",
		FlopsPerIter:     4, // hash + probe ops
		FMAFrac:          0,
		LoadBytesPerIter: 48,
		VectorizableFrac: 0.2,
		AutoVecFrac:      0.05,
		DepChainPenalty:  1.0,
		NonFPFrac:        0.9,
		Pattern:          core.PatternRandom,
		WorkingSetBytes:  int64(reads) * 64,
	})
}

func pileupKernel(g int) core.Kernel {
	return core.MustKernel(core.Kernel{
		Name:              "pileup",
		FlopsPerIter:      2,
		LoadBytesPerIter:  16,
		StoreBytesPerIter: 8,
		VectorizableFrac:  0.5,
		AutoVecFrac:       0.1,
		NonFPFrac:         0.6,
		Pattern:           core.PatternRandom,
		WorkingSetBytes:   int64(g) * 4 * 8,
	})
}

// App is the NGS Analyzer miniapp.
type App struct{}

// Name returns the registry key.
func (App) Name() string { return "ngsa" }

// Description returns the Table 2 entry.
func (App) Description() string {
	return "Genome resequencing: k-mer seeding, banded Smith-Waterman, SNP pileup (NGS Analyzer, RIKEN)"
}

// genomeFor returns the genome length per size.
func genomeFor(size common.Size) int {
	switch size {
	case common.SizeTest:
		return 20000
	case common.SizeSmall:
		return 60000
	default:
		return 150000
	}
}

// Kernels implements common.App.
func (App) Kernels(size common.Size) []core.Kernel {
	g := genomeFor(size)
	reads := g * coverage / readLen
	return []core.Kernel{swKernel(reads), seedKernel(reads), pileupKernel(g)}
}

// Run implements common.App: the paired-end resequencing pipeline.

// Pairs are distributed over ranks; the pileup is combined with an
// integer-exact Allreduce.
func (a App) Run(cfg common.RunConfig) (common.Result, error) {
	cfg = cfg.Normalized()
	g := genomeFor(cfg.Size)
	nPairs := g * coverage / readLen / 2

	// The reference and its k-mer index are host-side set-up, not
	// modelled work: built once by the first rank to need them, read by
	// every rank, never written. A replayed launch needs neither.
	var once sync.Once
	var genome *Genome
	var idx *Index

	var o outputs
	res, err := common.LaunchApp(a.Name(), cfg, &o, func(env *common.Env) error {
		once.Do(func() {
			genome = NewGenome(g, cfg.Seed)
			idx = NewIndex(genome.Ref)
		})
		sch := omp.Schedule{Kind: omp.Dynamic, Chunk: 16}

		procs := env.Procs()
		lo := env.Rank() * nPairs / procs
		hi := (env.Rank() + 1) * nPairs / procs
		mine := hi - lo

		kS := swKernel(2 * nPairs)
		kK := seedKernel(2 * nPairs)
		kP := pileupKernel(g)
		var ops float64

		// Per-thread pileup counts, merged deterministically.
		threads := env.Threads()
		counts := make([][]float64, threads)
		for t := range counts {
			counts[t] = make([]float64, 4*g)
		}
		aligned := make([]int64, threads)
		cellTot := make([]int64, threads)

		pile := func(th int, seq []byte, start int) {
			for j := 0; j < readLen; j++ {
				pos := start + j
				if pos >= g {
					break
				}
				switch seq[j] {
				case 'A':
					counts[th][4*pos]++
				case 'C':
					counts[th][4*pos+1]++
				case 'G':
					counts[th][4*pos+2]++
				case 'T':
					counts[th][4*pos+3]++
				}
			}
		}
		filtered := make([]int64, threads)
		env.Team.ParallelFor(sch, mine, func(th, rel int) {
			pair := genome.MakePair(lo+rel, cfg.Seed)
			// Stage 1 of the pipeline: quality filtering. Low-quality
			// pairs are dropped before any alignment work.
			if !pair.PassesQuality() {
				filtered[th]++
				return
			}
			res, fwd2, cells := AlignPair(idx, genome.Ref, pair)
			cellTot[th] += int64(cells)
			// Only concordant pairs enter the pileup — the pipeline's
			// precision mechanism.
			if !res.Concordant {
				return
			}
			aligned[th]++
			pile(th, pair.R1, res.Pos1)
			pile(th, fwd2, res.Pos2)
		}, nil)

		local := make([]float64, 4*g)
		var nAligned int64
		var nCells int64
		for t := 0; t < threads; t++ {
			for i, v := range counts[t] {
				local[i] += v
			}
			nAligned += aligned[t]
			nCells += cellTot[t]
		}
		ops += 6*float64(nCells) + 4*float64(mine)*8 + 4*float64(nAligned)*readLen
		if err := env.Charge(kS, float64(nCells)); err != nil {
			return err
		}
		if err := env.Charge(kK, float64(mine*8)); err != nil {
			return err
		}
		if err := env.Charge(kP, 2*float64(nAligned)*readLen); err != nil {
			return err
		}

		global, err := env.Comm.Allreduce(mpi.OpSum, local)
		if err != nil {
			return err
		}
		totalAligned, err := env.Comm.AllreduceScalar(mpi.OpSum, float64(nAligned))
		if err != nil {
			return err
		}
		opsAll, err := env.Comm.AllreduceScalar(mpi.OpSum, ops)
		if err != nil {
			return err
		}

		// SNP calling (every rank computes the same answer from the
		// reduced pileup).
		called := map[int]byte{}
		for pos := 0; pos < g; pos++ {
			var depth float64
			bestB, bestC := byte(0), 0.0
			for b := 0; b < 4; b++ {
				c := global[4*pos+b]
				depth += c
				if c > bestC {
					bestC, bestB = c, bases[b]
				}
			}
			if depth >= 4 && bestB != genome.Ref[pos] && bestC >= 0.7*depth {
				called[pos] = bestB
			}
		}
		tp := 0
		for pos, b := range genome.SNPs {
			if called[pos] == b {
				tp++
			}
		}
		if env.Rank() == 0 {
			o = outputs{alignRate: totalAligned / float64(nPairs), ops: opsAll}
			if len(genome.SNPs) > 0 {
				o.recall = float64(tp) / float64(len(genome.SNPs))
			}
			if len(called) > 0 {
				o.precision = float64(tp) / float64(len(called))
			}
		}
		return nil
	})
	if err != nil {
		return common.Result{}, fmt.Errorf("ngsa: %w", err)
	}

	out := common.FinishResult(a.Name(), cfg, res)
	out.Flops = o.ops
	out.Check = o.recall
	out.Verified = o.recall >= 0.8 && o.precision >= 0.8 && o.alignRate >= 0.8
	if out.Time > 0 {
		out.Figure = float64(2*nPairs) / out.Time
		out.FigureUnit = "reads/s"
	}
	return out, nil
}

// outputs are what a run's numerics decide: SNP recall and precision,
// the concordant-pair rate and the node's operation count.
type outputs struct {
	recall, precision, alignRate, ops float64
}

func init() { common.Register(App{}) }
