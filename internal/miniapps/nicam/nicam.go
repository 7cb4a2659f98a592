// Package nicam reproduces the NICAM-DC-mini miniapp (AORI/JAMSTEC/
// RIKEN): the dynamical-core of a global atmosphere model. The
// computational character — conservative flux-form finite-volume
// operators (divergence, flux, diffusion) swept over a quasi-uniform
// 2-D grid with halo exchanges — is preserved with a shallow-water
// dynamical core on a doubly periodic domain; the icosahedral panel
// topology is simplified to one rectangular panel per rank (see
// DESIGN.md for the substitution note).
//
// Mass is conserved to round-off by construction (telescoping fluxes),
// which is exactly the invariant the verification checks.
package nicam

import (
	"fmt"
	"math"

	"fibersim/internal/core"
	"fibersim/internal/miniapps/common"
	"fibersim/internal/mpi"
	"fibersim/internal/omp"
)

const (
	grav     = 9.81
	dt       = 0.001
	steps    = 10
	coriolis = 2.0 // f-plane Coriolis parameter
)

// Grid is one rank's slab (decomposed along y, periodic globally).
type Grid struct {
	NX, NY int // global extents
	Procs  int
	Rank   int
	NYloc  int
}

// NewGrid validates the decomposition.
func NewGrid(nx, ny, procs, rank int) (*Grid, error) {
	if nx < 4 || ny < 4 {
		return nil, fmt.Errorf("nicam: grid %dx%d too small", nx, ny)
	}
	if procs < 1 || ny%procs != 0 {
		return nil, fmt.Errorf("nicam: %d ranks do not divide NY=%d", procs, ny)
	}
	return &Grid{NX: nx, NY: ny, Procs: procs, Rank: rank, NYloc: ny / procs}, nil
}

// Idx addresses (i, j) with local j in [-1, NYloc].
func (g *Grid) Idx(i, j int) int { return i + g.NX*(j+1) }

// LocalCells returns interior cells.
func (g *Grid) LocalCells() int { return g.NX * g.NYloc }

// StoredCells includes halo rows.
func (g *Grid) StoredCells() int { return g.NX * (g.NYloc + 2) }

// GlobalJ maps local j to global row.
func (g *Grid) GlobalJ(j int) int {
	gj := g.Rank*g.NYloc + j
	return ((gj % g.NY) + g.NY) % g.NY
}

// state holds conserved variables h, hu, hv and the tracer mass hq
// (the dycore's moisture-like passive tracer).
type state struct {
	g              *Grid
	h, hu, hv, hq  []float64
	nh, nu, nv, nq []float64 // next step
}

func newState(g *Grid) *state {
	f := func() []float64 { return make([]float64, g.StoredCells()) }
	return &state{
		g: g,
		h: f(), hu: f(), hv: f(), hq: f(),
		nh: f(), nu: f(), nv: f(), nq: f(),
	}
}

// fluxKernel is the dominant stencil sweep: Lax-Friedrichs fluxes for
// three conserved fields.
func fluxKernel(cells int, size common.Size) core.Kernel {
	cells *= int(common.WorkingSetScale(size))
	return core.MustKernel(core.Kernel{
		Name:              "sw-flux",
		FlopsPerIter:      140, // four conserved fields incl. tracer
		FMAFrac:           0.55,
		LoadBytesPerIter:  15 * 8,
		StoreBytesPerIter: 3 * 8,
		VectorizableFrac:  0.95,
		AutoVecFrac:       0.85,
		DepChainPenalty:   0.3,
		Pattern:           core.PatternStream,
		WorkingSetBytes:   int64(cells) * 6 * 8,
	})
}

// App is the NICAM miniapp.
type App struct{}

// Name returns the registry key.
func (App) Name() string { return "nicam" }

// Description returns the Table 2 entry.
func (App) Description() string {
	return "Global-atmosphere dynamical core: conservative shallow-water operators (NICAM-DC-mini)"
}

// gridFor returns global extents; NY=48 keeps every decomposition
// valid.
func gridFor(size common.Size) (nx, ny int) {
	switch size {
	case common.SizeTest:
		return 32, 16
	case common.SizeSmall:
		return 192, 48
	default:
		return 384, 96
	}
}

// Kernels implements common.App.
func (App) Kernels(size common.Size) []core.Kernel {
	nx, ny := gridFor(size)
	return []core.Kernel{fluxKernel(nx*ny, size)}
}

type runner struct {
	env   *common.Env
	st    *state
	sch   omp.Schedule
	k     core.Kernel
	flops float64
	sums  [2]float64 // mass's reduction buffer
}

// exchange fills the halo rows of one field (periodic in y across
// ranks), sending from and receiving into the field in place.
func (r *runner) exchange(f []float64, tag int) error {
	g := r.st.g
	row := func(j int) []float64 {
		return f[g.Idx(0, j) : g.Idx(0, j)+g.NX]
	}
	if g.Procs == 1 {
		copy(row(-1), row(g.NYloc-1))
		copy(row(g.NYloc), row(0))
		return nil
	}
	c := r.env.Comm
	up := (g.Rank + 1) % g.Procs
	down := (g.Rank - 1 + g.Procs) % g.Procs
	if err := c.SendrecvInto(up, tag, row(g.NYloc-1), down, tag, row(-1)); err != nil {
		return err
	}
	return c.SendrecvInto(down, tag+1, row(0), up, tag+1, row(g.NYloc))
}

// lfFlux computes the Lax-Friedrichs numerical flux for one face given
// left/right conserved states and the local wave speed bound.
func lfFlux(fl, fr, ul, ur, a float64) float64 {
	return 0.5*(fl+fr) - 0.5*a*(ur-ul)
}

// step advances one time step; the scheme is conservative by
// telescoping fluxes, so global mass is preserved to round-off.
func (r *runner) step() error {
	for tag, f := range [][]float64{r.st.h, r.st.hu, r.st.hv, r.st.hq} {
		if err := r.exchange(f, 10*(tag+1)); err != nil {
			return err
		}
	}
	g := r.st.g
	s := r.st
	// Wave-speed bound for LF: max |u|+sqrt(gh) over local cells,
	// reduced globally so the flux at a shared face is identical on
	// both sides.
	var localA float64
	for j := 0; j < g.NYloc; j++ {
		for i := 0; i < g.NX; i++ {
			id := g.Idx(i, j)
			h := s.h[id]
			if h <= 0 {
				continue
			}
			sp := math.Abs(s.hu[id]/h) + math.Abs(s.hv[id]/h) + math.Sqrt(grav*h)
			if sp > localA {
				localA = sp
			}
		}
	}
	a, err := r.env.Comm.AllreduceScalar(mpi.OpMax, localA)
	if err != nil {
		return err
	}

	dx := 1.0 / float64(g.NX)
	dy := dx
	r.env.Team.ParallelFor(r.sch, g.LocalCells(), func(_, lin int) {
		i := lin % g.NX
		j := lin / g.NX
		id := g.Idx(i, j)
		ip := g.Idx((i+1)%g.NX, j)
		im := g.Idx((i-1+g.NX)%g.NX, j)
		jp := g.Idx(i, j+1)
		jm := g.Idx(i, j-1)

		// Physical fluxes per cell, x-direction:
		// F = (hu, hu^2/h + g h^2/2, hu hv / h, hq u).
		fx := func(c int) (float64, float64, float64, float64) {
			h, hu, hv, hq := s.h[c], s.hu[c], s.hv[c], s.hq[c]
			u := hu / h
			return hu, hu*u + 0.5*grav*h*h, hv * u, hq * u
		}
		fy := func(c int) (float64, float64, float64, float64) {
			h, hu, hv, hq := s.h[c], s.hu[c], s.hv[c], s.hq[c]
			v := hv / h
			return hv, hu * v, hv*v + 0.5*grav*h*h, hq * v
		}

		f0c, f1c, f2c, f3c := fx(id)
		f0p, f1p, f2p, f3p := fx(ip)
		f0m, f1m, f2m, f3m := fx(im)
		g0c, g1c, g2c, g3c := fy(id)
		g0p, g1p, g2p, g3p := fy(jp)
		g0m, g1m, g2m, g3m := fy(jm)

		// Face fluxes (right face between id and ip, etc.).
		fhR := lfFlux(f0c, f0p, s.h[id], s.h[ip], a)
		fhL := lfFlux(f0m, f0c, s.h[im], s.h[id], a)
		fuR := lfFlux(f1c, f1p, s.hu[id], s.hu[ip], a)
		fuL := lfFlux(f1m, f1c, s.hu[im], s.hu[id], a)
		fvR := lfFlux(f2c, f2p, s.hv[id], s.hv[ip], a)
		fvL := lfFlux(f2m, f2c, s.hv[im], s.hv[id], a)

		ghT := lfFlux(g0c, g0p, s.h[id], s.h[jp], a)
		ghB := lfFlux(g0m, g0c, s.h[jm], s.h[id], a)
		guT := lfFlux(g1c, g1p, s.hu[id], s.hu[jp], a)
		guB := lfFlux(g1m, g1c, s.hu[jm], s.hu[id], a)
		gvT := lfFlux(g2c, g2p, s.hv[id], s.hv[jp], a)
		gvB := lfFlux(g2m, g2c, s.hv[jm], s.hv[id], a)

		fqR := lfFlux(f3c, f3p, s.hq[id], s.hq[ip], a)
		fqL := lfFlux(f3m, f3c, s.hq[im], s.hq[id], a)
		gqT := lfFlux(g3c, g3p, s.hq[id], s.hq[jp], a)
		gqB := lfFlux(g3m, g3c, s.hq[jm], s.hq[id], a)

		s.nh[id] = s.h[id] - dt*((fhR-fhL)/dx+(ghT-ghB)/dy)
		// Momentum update including the f-plane Coriolis source terms,
		// which rotate the flow without touching the mass or tracer.
		s.nu[id] = s.hu[id] - dt*((fuR-fuL)/dx+(guT-guB)/dy) + dt*coriolis*s.hv[id]
		s.nv[id] = s.hv[id] - dt*((fvR-fvL)/dx+(gvT-gvB)/dy) - dt*coriolis*s.hu[id]
		s.nq[id] = s.hq[id] - dt*((fqR-fqL)/dx+(gqT-gqB)/dy)
	}, nil)
	r.flops += 140 * float64(g.LocalCells())
	if err := r.env.Charge(r.k, float64(g.LocalCells())); err != nil {
		return err
	}

	s.h, s.nh = s.nh, s.h
	s.hu, s.nu = s.nu, s.hu
	s.hv, s.nv = s.nv, s.hv
	s.hq, s.nq = s.nq, s.hq
	return nil
}

// mass returns the global sums of h and of the tracer mass hq over
// interior cells.
func (r *runner) mass() (float64, float64, error) {
	g := r.st.g
	var local, localQ float64
	for j := 0; j < g.NYloc; j++ {
		for i := 0; i < g.NX; i++ {
			local += r.st.h[g.Idx(i, j)]
			localQ += r.st.hq[g.Idx(i, j)]
		}
	}
	r.sums = [2]float64{local, localQ}
	if err := r.env.Comm.Allreduce(mpi.OpSum, r.sums[:]); err != nil {
		return 0, 0, err
	}
	return r.sums[0], r.sums[1], nil
}

// Run implements common.App.
func (a App) Run(cfg common.RunConfig) (common.Result, error) {
	cfg = cfg.Normalized()
	nx, ny := gridFor(cfg.Size)
	if ny%cfg.Procs != 0 {
		return common.Result{}, fmt.Errorf("nicam: %d ranks do not divide NY=%d", cfg.Procs, ny)
	}

	var o outputs
	res, err := common.LaunchApp(a.Name(), cfg, &o, func(env *common.Env) error {
		g, err := NewGrid(nx, ny, env.Procs(), env.Rank())
		if err != nil {
			return err
		}
		r := &runner{
			env: env, st: newState(g),
			sch: omp.Schedule{Kind: omp.Static},
			k:   fluxKernel(g.LocalCells(), cfg.Size),
		}
		// Initial condition: a Gaussian height bump at rest, evaluated
		// from global coordinates for decomposition invariance.
		for j := 0; j < g.NYloc; j++ {
			gj := g.GlobalJ(j)
			for i := 0; i < g.NX; i++ {
				x := (float64(i) + 0.5) / float64(g.NX)
				y := (float64(gj) + 0.5) / float64(g.NY)
				d2 := (x-0.5)*(x-0.5) + (y-0.5)*(y-0.5)
				r.st.h[g.Idx(i, j)] = 1 + 0.3*math.Exp(-d2/0.01)
				// Tracer blob offset from the height bump.
				dq := (x-0.3)*(x-0.3) + (y-0.6)*(y-0.6)
				r.st.hq[g.Idx(i, j)] = r.st.h[g.Idx(i, j)] * 0.5 * math.Exp(-dq/0.02)
			}
		}

		m0, q0, err := r.mass()
		if err != nil {
			return err
		}
		for s := 0; s < steps; s++ {
			if err := r.step(); err != nil {
				return err
			}
		}
		m1, q1, err := r.mass()
		if err != nil {
			return err
		}

		ok := true
		for j := 0; j < g.NYloc && ok; j++ {
			for i := 0; i < g.NX; i++ {
				if v := r.st.h[g.Idx(i, j)]; math.IsNaN(v) || v <= 0 {
					ok = false
					break
				}
			}
		}
		fl, err := env.Comm.AllreduceScalar(mpi.OpSum, r.flops)
		if err != nil {
			return err
		}
		if env.Rank() == 0 {
			massErr := math.Abs(m1-m0) / math.Abs(m0)
			if q0 != 0 {
				if qe := math.Abs(q1-q0) / math.Abs(q0); qe > massErr {
					massErr = qe // report the worse of the two invariants
				}
			}
			o = outputs{massErr: massErr, flops: fl, finite: ok}
		}
		return nil
	})
	if err != nil {
		return common.Result{}, fmt.Errorf("nicam: %w", err)
	}

	out := common.FinishResult(a.Name(), cfg, res)
	out.Flops = o.flops
	out.Check = o.massErr
	out.Verified = o.massErr < 1e-12 && o.finite
	if out.Time > 0 {
		out.Figure = float64(nx*ny) * steps / out.Time / 1e6
		out.FigureUnit = "Mcell-steps/s"
	}
	return out, nil
}

// outputs are what a run's numerics decide: the worse relative drift of
// the two conserved masses, the node's flops and whether rank 0's
// height field stayed finite and positive.
type outputs struct {
	massErr, flops float64
	finite         bool
}

func init() { common.Register(App{}) }
