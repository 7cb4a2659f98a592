package ccsqcd

import (
	"fmt"
	"math"

	"fibersim/internal/core"
	"fibersim/internal/miniapps/common"
	"fibersim/internal/mpi"
	"fibersim/internal/omp"
)

// App is the CCS QCD miniapp.
type App struct{}

// Name returns the registry key.
func (App) Name() string { return "ccsqcd" }

// Description returns the Table 2 entry.
func (App) Description() string {
	return "Lattice QCD Wilson-fermion BiCGStab solver (CCS QCD, U. Tsukuba)"
}

// latticeFor returns the global lattice for a size. LT is 48 for the
// non-test sizes so every node decomposition from 1x48 to 48x1 divides
// it.
func latticeFor(size common.Size) (lx, ly, lz, lt int) {
	switch size {
	case common.SizeTest:
		return 4, 4, 4, 16
	case common.SizeSmall:
		return 8, 8, 8, 48
	default:
		return 12, 12, 12, 48
	}
}

// Kappa is the hopping parameter; small enough for rapid BiCGStab
// convergence on random gauge fields.
const Kappa = 0.12

// Csw is the clover coefficient (tree level).
const Csw = 1.0

// Tol is the solver's relative-residual target.
const Tol = 1e-10

// dslashKernel is the performance descriptor of one Wilson dslash site
// update: 1320 flops against roughly 1.3 KB of spinor+gauge traffic
// after cache reuse (AI ~1.0), fully vectorizable, modest dependency
// chains (the su3 multiplies pipeline well).
func dslashKernel(localVol int, size common.Size) core.Kernel {
	localVol *= int(common.WorkingSetScale(size))
	return core.MustKernel(core.Kernel{
		Name:              "wilson-clover-dslash",
		FlopsPerIter:      FlopsPerSite + CloverFlopsPerSite,
		FMAFrac:           0.9,
		LoadBytesPerIter:  1100,
		StoreBytesPerIter: 192,
		VectorizableFrac:  0.98,
		AutoVecFrac:       0.85,
		DepChainPenalty:   0.4,
		Pattern:           core.PatternStrided,
		WorkingSetBytes:   int64(localVol) * (192 + 4*144),
	})
}

// linalgKernel covers the BiCGStab vector operations (axpy, dots):
// streaming, bandwidth bound.
func linalgKernel(localVol int, size common.Size) core.Kernel {
	localVol *= int(common.WorkingSetScale(size))
	return core.MustKernel(core.Kernel{
		Name:              "bicgstab-linalg",
		FlopsPerIter:      8 * spinorLen, // complex axpy per element
		FMAFrac:           1,
		LoadBytesPerIter:  2 * 16 * spinorLen,
		StoreBytesPerIter: 16 * spinorLen,
		VectorizableFrac:  1,
		AutoVecFrac:       1,
		Pattern:           core.PatternStream,
		WorkingSetBytes:   int64(localVol) * 16 * spinorLen * 3,
	})
}

// Kernels implements common.App.
func (App) Kernels(size common.Size) []core.Kernel {
	lx, ly, lz, lt := latticeFor(size)
	vol := lx * ly * lz * lt
	return []core.Kernel{dslashKernel(vol, size), linalgKernel(vol, size)}
}

// solver carries the distributed state of one rank.
type solver struct {
	env   *common.Env
	geo   *Geometry
	op    *Dirac
	kD    core.Kernel // dslash
	kL    core.Kernel // linalg
	sch   omp.Schedule
	vol   int // interior sites
	iters int
	flops float64
	// apply is the operator BiCGStab inverts; nil means the full
	// Wilson-Clover matvec. The even-odd path plugs its Schur operator
	// in here.
	apply func(dst, src Field) error
	// halo holds exchangeHalo's two packed boundary slices.
	halo [2][]float64
}

// applyOp dispatches to the configured operator.
func (s *solver) applyOp(dst, src Field) error {
	if s.apply != nil {
		return s.apply(dst, src)
	}
	return s.matvec(dst, src)
}

// newSolver builds one rank's Wilson-Clover solver for the size's
// lattice, with the gauge field drawn from seed.
func newSolver(env *common.Env, size common.Size, seed int64) (*solver, error) {
	lx, ly, lz, lt := latticeFor(size)
	geo, err := NewGeometry(lx, ly, lz, lt, env.Procs(), env.Rank())
	if err != nil {
		return nil, err
	}
	return &solver{
		env: env, geo: geo,
		op:  NewDiracClover(geo, NewGauge(geo, seed), Kappa, Csw),
		kD:  dslashKernel(geo.LocalVol(), size),
		kL:  linalgKernel(geo.LocalVol(), size),
		sch: omp.Schedule{Kind: omp.Static},
		vol: geo.LocalVol(),
	}, nil
}

// noiseSource returns the deterministic noise right-hand side,
// generated from global coordinates so every decomposition solves the
// identical system.
func (s *solver) noiseSource(seed int64) Field {
	geo := s.geo
	b := geo.NewField()
	for i := 0; i < s.vol; i++ {
		x, y, z, t := geo.SiteOfLinear(i)
		off := (geo.SliceVol() + i) * spinorLen
		rng := common.NewRNG(siteSeed(seed, x, y, z, geo.GlobalT(t)))
		for k := 0; k < spinorLen; k++ {
			b[off+k] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
		}
	}
	return b
}

// exchangeHalo fills src's two halo slices from the neighbouring ranks
// (or wraps locally when the slab covers the whole T extent).
func (s *solver) exchangeHalo(src Field) error {
	g := s.geo
	sv := g.SliceVol() * spinorLen
	slice := func(t int) Field {
		off := g.Index(0, 0, 0, t) * spinorLen // slices are contiguous (t outermost)
		return src[off : off+sv]
	}
	if g.Procs == 1 {
		// Periodic wrap within the slab.
		copy(slice(-1), slice(g.LTloc-1))
		copy(slice(g.LTloc), slice(0))
		return nil
	}
	// pack writes slice t into buffer b as interleaved real and
	// imaginary parts. Sendrecv copies its payload, so the buffers
	// are reused from call to call.
	pack := func(b, t int) []float64 {
		if s.halo[b] == nil {
			s.halo[b] = make([]float64, 2*sv)
		}
		out := s.halo[b]
		for i, v := range slice(t) {
			out[2*i] = real(v)
			out[2*i+1] = imag(v)
		}
		return out
	}
	unpack := func(t int, data []float64) {
		f := slice(t)
		for i := range f {
			f[i] = complex(data[2*i], data[2*i+1])
		}
	}

	c := s.env.Comm
	up := (g.Rank + 1) % g.Procs
	down := (g.Rank - 1 + g.Procs) % g.Procs
	// Send top slice up / receive bottom halo from down.
	got, err := c.Sendrecv(up, 100, pack(0, g.LTloc-1), down, 100)
	if err != nil {
		return err
	}
	unpack(-1, got)
	// Send bottom slice down / receive top halo from up.
	got, err = c.Sendrecv(down, 101, pack(1, 0), up, 101)
	if err != nil {
		return err
	}
	unpack(g.LTloc, got)
	return nil
}

// matvec computes dst = D src (halo exchange + parallel site sweep) and
// charges the dslash kernel.
func (s *solver) matvec(dst, src Field) error {
	if err := s.exchangeHalo(src); err != nil {
		return err
	}
	g := s.geo
	s.env.Team.ParallelRange(s.sch, s.vol, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			x, y, z, t := g.SiteOfLinear(i)
			s.op.ApplySite(dst, src, x, y, z, t)
		}
	}, nil)
	s.flops += (FlopsPerSite + CloverFlopsPerSite) * float64(s.vol)
	return s.env.Charge(s.kD, float64(s.vol))
}

// dot computes the global complex inner product <a,b> over interior
// sites: per site, then per thread in site order, then across threads.
func (s *solver) dot(a, b Field) (complex128, error) {
	partial := make([]complex128, s.env.Threads())
	base := s.geo.SliceVol()
	s.env.Team.ParallelRange(s.sch, s.vol, func(th, lo, hi int) {
		sum := partial[th]
		for i := lo; i < hi; i++ {
			off := (base + i) * spinorLen
			var acc complex128
			for k := 0; k < spinorLen; k++ {
				av := a[off+k]
				acc += complex(real(av), -imag(av)) * b[off+k]
			}
			sum += acc
		}
		partial[th] = sum
	}, nil)
	var local complex128
	for _, p := range partial {
		local += p
	}
	if err := s.env.Charge(s.kL, float64(s.vol)/3); err != nil { // dot is ~1/3 of an axpy's traffic
		return 0, err
	}
	out, err := s.env.Comm.Allreduce(mpi.OpSum, []float64{real(local), imag(local)})
	if err != nil {
		return 0, err
	}
	return complex(out[0], out[1]), nil
}

// forEach runs body once per chunk of interior sites, passing the
// chunk's field entries [lo, hi) (interior sites are contiguous in
// storage, from SliceVol() on), and charges the linalg kernel.
func (s *solver) forEach(body func(lo, hi int)) error {
	base := s.geo.SliceVol()
	s.env.Team.ParallelRange(s.sch, s.vol, func(_, lo, hi int) {
		body((base+lo)*spinorLen, (base+hi)*spinorLen)
	}, nil)
	return s.env.Charge(s.kL, float64(s.vol))
}

// norm2 returns the global squared norm.
func (s *solver) norm2(a Field) (float64, error) {
	d, err := s.dot(a, a)
	if err != nil {
		return 0, err
	}
	return real(d), nil
}

// bicgstab solves D x = b; x must be zeroed. Returns the final true
// relative residual.
func (s *solver) bicgstab(x, b Field, maxIter int) (float64, error) {
	g := s.geo
	r := g.NewField()
	rhat := g.NewField()
	p := g.NewField()
	v := g.NewField()
	sv := g.NewField()
	tv := g.NewField()

	// r = b (x = 0), rhat = r.
	if err := s.forEach(func(lo, hi int) {
		copy(r[lo:hi], b[lo:hi])
		copy(rhat[lo:hi], b[lo:hi])
	}); err != nil {
		return 0, err
	}

	bnorm, err := s.norm2(b)
	if err != nil {
		return 0, err
	}
	if bnorm == 0 {
		return 0, nil
	}

	rho, alpha, omega := complex128(1), complex128(1), complex128(1)
	for it := 0; it < maxIter; it++ {
		s.iters++
		rhoNew, err := s.dot(rhat, r)
		if err != nil {
			return 0, err
		}
		if rhoNew == 0 {
			return math.Inf(1), fmt.Errorf("ccsqcd: BiCGStab breakdown (rho=0)")
		}
		beta := (rhoNew / rho) * (alpha / omega)
		// p = r + beta*(p - omega*v)
		if err := s.forEach(func(lo, hi int) {
			for k := lo; k < hi; k++ {
				p[k] = r[k] + beta*(p[k]-omega*v[k])
			}
		}); err != nil {
			return 0, err
		}
		if err := s.applyOp(v, p); err != nil {
			return 0, err
		}
		rv, err := s.dot(rhat, v)
		if err != nil {
			return 0, err
		}
		if rv == 0 {
			return math.Inf(1), fmt.Errorf("ccsqcd: BiCGStab breakdown (rhat.v=0)")
		}
		alpha = rhoNew / rv
		// s = r - alpha v
		if err := s.forEach(func(lo, hi int) {
			for k := lo; k < hi; k++ {
				sv[k] = r[k] - alpha*v[k]
			}
		}); err != nil {
			return 0, err
		}
		sn, err := s.norm2(sv)
		if err != nil {
			return 0, err
		}
		if math.Sqrt(sn/bnorm) < Tol {
			if err := s.forEach(func(lo, hi int) {
				for k := lo; k < hi; k++ {
					x[k] += alpha * p[k]
				}
			}); err != nil {
				return 0, err
			}
			break
		}
		if err := s.applyOp(tv, sv); err != nil {
			return 0, err
		}
		ts, err := s.dot(tv, sv)
		if err != nil {
			return 0, err
		}
		tt, err := s.norm2(tv)
		if err != nil {
			return 0, err
		}
		if tt == 0 {
			return math.Inf(1), fmt.Errorf("ccsqcd: BiCGStab breakdown (t=0)")
		}
		omega = ts / complex(tt, 0)
		// x += alpha p + omega s ; r = s - omega t
		if err := s.forEach(func(lo, hi int) {
			for k := lo; k < hi; k++ {
				x[k] += alpha*p[k] + omega*sv[k]
				r[k] = sv[k] - omega*tv[k]
			}
		}); err != nil {
			return 0, err
		}
		rn, err := s.norm2(r)
		if err != nil {
			return 0, err
		}
		if math.Sqrt(rn/bnorm) < Tol {
			break
		}
		rho = rhoNew
	}

	// True residual: ||b - D x|| / ||b||.
	ax := g.NewField()
	if err := s.applyOp(ax, x); err != nil {
		return 0, err
	}
	if err := s.forEach(func(lo, hi int) {
		for k := lo; k < hi; k++ {
			ax[k] = b[k] - ax[k]
		}
	}); err != nil {
		return 0, err
	}
	rn, err := s.norm2(ax)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(rn / bnorm), nil
}

// Run implements common.App.
func (a App) Run(cfg common.RunConfig) (common.Result, error) {
	cfg = cfg.Normalized()
	_, _, _, lt := latticeFor(cfg.Size)
	if cfg.Procs == 0 {
		cfg.Procs = 1
	}
	if lt%cfg.Procs != 0 {
		return common.Result{}, fmt.Errorf("ccsqcd: %d ranks do not divide LT=%d", cfg.Procs, lt)
	}

	var o outputs
	res, err := common.LaunchApp(a.Name(), cfg, &o, func(env *common.Env) error {
		s, err := newSolver(env, cfg.Size, cfg.Seed)
		if err != nil {
			return err
		}
		x := s.geo.NewField()
		rr, err := s.bicgstab(x, s.noiseSource(cfg.Seed), 200)
		if err != nil {
			return err
		}
		fl, err := env.Comm.AllreduceScalar(mpi.OpSum, s.flops)
		if err != nil {
			return err
		}
		if env.Rank() == 0 {
			o = outputs{residual: rr, iters: s.iters, flops: fl}
		}
		return nil
	})
	if err != nil {
		return common.Result{}, fmt.Errorf("ccsqcd: %w", err)
	}

	out := common.FinishResult(a.Name(), cfg, res)
	out.Flops = o.flops
	out.Verified = o.residual < 1e-8
	out.Check = o.residual
	out.Figure = float64(o.iters)
	out.FigureUnit = "BiCGStab iterations"
	return out, nil
}

// outputs are what a run's numerics decide: the true relative
// residual, the solver iterations and the node's flops.
type outputs struct {
	residual float64
	iters    int
	flops    float64
}

func init() { common.Register(App{}) }
