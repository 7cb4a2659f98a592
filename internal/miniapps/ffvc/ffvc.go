// Package ffvc reproduces the FFVC-mini miniapp (RIKEN): a 3-D
// incompressible Navier-Stokes solver on a voxel (Cartesian) grid using
// the fractional-step method. The pressure Poisson equation is solved
// with red-black SOR — the "sor2sma" kernel that dominates the original
// code — and the velocity is corrected to a divergence-free field. The
// test problem is the lid-driven cavity.
package ffvc

import (
	"fmt"
	"math"

	"fibersim/internal/core"
	"fibersim/internal/miniapps/common"
	"fibersim/internal/mpi"
	"fibersim/internal/omp"
)

// Params fixes the physics of the cavity problem.
const (
	lidU   = 1.0  // lid velocity
	nu     = 0.05 // kinematic viscosity
	dt     = 0.002
	sorW   = 1.5 // SOR over-relaxation
	steps  = 5   // time steps per run
	sweeps = 20  // SOR sweeps per step
)

// Grid is one rank's slab of the voxel field, decomposed along Z.
type Grid struct {
	NX, NY, NZ int // global interior extents
	Procs      int
	Rank       int
	NZloc      int
	h          float64 // cell size
}

// NewGrid validates the decomposition.
func NewGrid(nx, ny, nz, procs, rank int) (*Grid, error) {
	if nx < 4 || ny < 4 || nz < 4 {
		return nil, fmt.Errorf("ffvc: grid %dx%dx%d too small", nx, ny, nz)
	}
	if procs < 1 || nz%procs != 0 {
		return nil, fmt.Errorf("ffvc: %d ranks do not divide NZ=%d", procs, nz)
	}
	return &Grid{NX: nx, NY: ny, NZ: nz, Procs: procs, Rank: rank, NZloc: nz / procs, h: 1.0 / float64(nx)}, nil
}

// SliceVol is the cells per z-plane.
func (g *Grid) SliceVol() int { return g.NX * g.NY }

// LocalVol is the rank's interior cells.
func (g *Grid) LocalVol() int { return g.SliceVol() * g.NZloc }

// StoredVol includes the two halo planes.
func (g *Grid) StoredVol() int { return g.SliceVol() * (g.NZloc + 2) }

// Idx addresses cell (i,j,k) with local k in [-1, NZloc].
func (g *Grid) Idx(i, j, k int) int { return i + g.NX*(j+g.NY*(k+1)) }

// GlobalK returns the global z index of local plane k.
func (g *Grid) GlobalK(k int) int { return g.Rank*g.NZloc + k }

// field allocates a zeroed stored-volume array.
func (g *Grid) field() []float64 { return make([]float64, g.StoredVol()) }

// state is one rank's flow state.
type state struct {
	g          *Grid
	u, v, w, p []float64
	us, vs, ws []float64 // provisional velocities
	div        []float64
}

func newState(g *Grid) *state {
	return &state{
		g: g,
		u: g.field(), v: g.field(), w: g.field(), p: g.field(),
		us: g.field(), vs: g.field(), ws: g.field(),
		div: g.field(),
	}
}

// kernels: descriptors for the two dominant loops.

func advDiffKernel(localVol int, size common.Size) core.Kernel {
	localVol *= int(common.WorkingSetScale(size))
	return core.MustKernel(core.Kernel{
		Name:              "adv-diff",
		FlopsPerIter:      90, // 3 components x (upwind advection + 7pt diffusion)
		FMAFrac:           0.6,
		LoadBytesPerIter:  22 * 8, // u,v,w stencils
		StoreBytesPerIter: 3 * 8,
		VectorizableFrac:  0.95,
		AutoVecFrac:       0.9,
		DepChainPenalty:   0.3,
		Pattern:           core.PatternStream,
		WorkingSetBytes:   int64(localVol) * 10 * 8,
	})
}

func sorKernel(localVol int, size common.Size) core.Kernel {
	localVol *= int(common.WorkingSetScale(size))
	return core.MustKernel(core.Kernel{
		Name:              "sor2sma",
		FlopsPerIter:      14, // 7-pt stencil + relaxation
		FMAFrac:           0.7,
		LoadBytesPerIter:  8 * 8,
		StoreBytesPerIter: 8,
		VectorizableFrac:  0.9,
		AutoVecFrac:       0.8,
		DepChainPenalty:   0.2,
		Pattern:           core.PatternStrided, // red-black stride-2 access
		WorkingSetBytes:   int64(localVol) * 10 * 8,
	})
}

func divKernel(localVol int, size common.Size) core.Kernel {
	localVol *= int(common.WorkingSetScale(size))
	return core.MustKernel(core.Kernel{
		Name:              "divergence",
		FlopsPerIter:      9,
		FMAFrac:           0.5,
		LoadBytesPerIter:  9 * 8,
		StoreBytesPerIter: 8,
		VectorizableFrac:  1,
		AutoVecFrac:       0.95,
		Pattern:           core.PatternStream,
		WorkingSetBytes:   int64(localVol) * 10 * 8,
	})
}

// App is the FFVC miniapp.
type App struct{}

// Name returns the registry key.
func (App) Name() string { return "ffvc" }

// Description returns the Table 2 entry.
func (App) Description() string {
	return "Incompressible Navier-Stokes on a voxel grid, red-black SOR pressure solve (FFVC-mini, RIKEN)"
}

// gridFor returns global extents per size; NZ=48 keeps every node
// decomposition valid.
func gridFor(size common.Size) (nx, ny, nz int) {
	switch size {
	case common.SizeTest:
		return 16, 16, 16
	case common.SizeSmall:
		return 32, 32, 48
	default:
		return 64, 64, 48
	}
}

// Kernels implements common.App.
func (App) Kernels(size common.Size) []core.Kernel {
	nx, ny, nz := gridFor(size)
	vol := nx * ny * nz
	return []core.Kernel{advDiffKernel(vol, size), sorKernel(vol, size), divKernel(vol, size)}
}

// runner binds the state to the simulation environment.
type runner struct {
	env        *common.Env
	st         *state
	sch        omp.Schedule
	kA, kS, kD core.Kernel
	flops      float64
}

// exchange swaps halo planes of one field with the z-neighbours.
// Non-periodic: boundary ranks mirror their edge plane (Neumann).
// Planes are sent from and received into the field in place.
func (r *runner) exchange(f []float64, tag int) error {
	g := r.st.g
	sv := g.SliceVol()
	plane := func(k int) []float64 {
		return f[g.Idx(0, 0, k) : g.Idx(0, 0, k)+sv]
	}
	c := r.env.Comm
	// Up (towards higher z).
	if g.Rank < g.Procs-1 {
		if err := c.SendrecvInto(g.Rank+1, tag, plane(g.NZloc-1), g.Rank+1, tag+1000, plane(g.NZloc)); err != nil {
			return err
		}
	} else {
		copy(plane(g.NZloc), plane(g.NZloc-1))
	}
	// Down.
	if g.Rank > 0 {
		if err := c.SendrecvInto(g.Rank-1, tag+1000, plane(0), g.Rank-1, tag, plane(-1)); err != nil {
			return err
		}
	} else {
		copy(plane(-1), plane(0))
	}
	return nil
}

// bc applies the cavity boundary conditions on the provisional and
// corrected velocity: no-slip walls, moving lid at global k = NZ-1.
func (r *runner) bc(u, v, w []float64) {
	g := r.st.g
	for k := 0; k < g.NZloc; k++ {
		gk := g.GlobalK(k)
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				id := g.Idx(i, j, k)
				onWall := i == 0 || i == g.NX-1 || j == 0 || j == g.NY-1 || gk == 0
				lid := gk == g.NZ-1
				if lid {
					u[id], v[id], w[id] = lidU, 0, 0
				} else if onWall {
					u[id], v[id], w[id] = 0, 0, 0
				}
			}
		}
	}
}

// interior reports whether the cell is a solved (non-boundary) cell.
func (g *Grid) interior(i, j, gk int) bool {
	return i > 0 && i < g.NX-1 && j > 0 && j < g.NY-1 && gk > 0 && gk < g.NZ-1
}

// advectDiffuse computes the provisional velocity u* on interior cells.
func (r *runner) advectDiffuse() error {
	g := r.st.g
	s := r.st
	h := g.h
	invh2 := 1 / (h * h)
	r.env.Team.ParallelFor(r.sch, g.LocalVol(), func(_, lin int) {
		i := lin % g.NX
		j := (lin / g.NX) % g.NY
		k := lin / (g.NX * g.NY)
		gk := g.GlobalK(k)
		id := g.Idx(i, j, k)
		if !g.interior(i, j, gk) {
			s.us[id], s.vs[id], s.ws[id] = s.u[id], s.v[id], s.w[id]
			return
		}
		ip, im := g.Idx(i+1, j, k), g.Idx(i-1, j, k)
		jp, jm := g.Idx(i, j+1, k), g.Idx(i, j-1, k)
		kp, km := g.Idx(i, j, k+1), g.Idx(i, j, k-1)
		for comp, f := range [3][]float64{s.u, s.v, s.w} {
			uu, vv, ww := s.u[id], s.v[id], s.w[id]
			// First-order upwind advection.
			var adv float64
			if uu >= 0 {
				adv += uu * (f[id] - f[im]) / h
			} else {
				adv += uu * (f[ip] - f[id]) / h
			}
			if vv >= 0 {
				adv += vv * (f[id] - f[jm]) / h
			} else {
				adv += vv * (f[jp] - f[id]) / h
			}
			if ww >= 0 {
				adv += ww * (f[id] - f[km]) / h
			} else {
				adv += ww * (f[kp] - f[id]) / h
			}
			lap := (f[ip] + f[im] + f[jp] + f[jm] + f[kp] + f[km] - 6*f[id]) * invh2
			val := f[id] + dt*(-adv+nu*lap)
			switch comp {
			case 0:
				s.us[id] = val
			case 1:
				s.vs[id] = val
			case 2:
				s.ws[id] = val
			}
		}
	}, nil)
	r.flops += 90 * float64(g.LocalVol())
	return r.env.Charge(r.kA, float64(g.LocalVol()))
}

// divergenceStar stores div(u*)/dt as the Poisson right-hand side.
// Backward differences pair with the forward-difference pressure
// gradient of project(), so their composition is the compact Laplacian
// the SOR solves — the projection is then exact up to SOR residual.
func (r *runner) divergenceStar() error {
	g := r.st.g
	s := r.st
	invh := 1 / g.h
	r.env.Team.ParallelFor(r.sch, g.LocalVol(), func(_, lin int) {
		i := lin % g.NX
		j := (lin / g.NX) % g.NY
		k := lin / (g.NX * g.NY)
		gk := g.GlobalK(k)
		id := g.Idx(i, j, k)
		if !g.interior(i, j, gk) {
			s.div[id] = 0
			return
		}
		d := (s.us[id]-s.us[g.Idx(i-1, j, k)])*invh +
			(s.vs[id]-s.vs[g.Idx(i, j-1, k)])*invh +
			(s.ws[id]-s.ws[g.Idx(i, j, k-1)])*invh
		s.div[id] = d / dt
	}, nil)
	r.flops += 9 * float64(g.LocalVol())
	return r.env.Charge(r.kD, float64(g.LocalVol()))
}

// sorColor relaxes one red-black color of the pressure field. Each
// chunk of linear cells is swept row by row: a row segment's cells of
// the color are every second cell from the first interior one. A cell
// reads only cells of the other color, so the sweep order leaves the
// result unchanged.
func (r *runner) sorColor(color int) error {
	g := r.st.g
	s := r.st
	h2 := g.h * g.h
	nx, sv := g.NX, g.SliceVol()
	r.env.Team.ParallelRange(r.sch, g.LocalVol(), func(_, lo, hi int) {
		for row := lo / nx; row*nx < hi; row++ {
			j, k := row%g.NY, row/g.NY
			gk := g.GlobalK(k)
			if j == 0 || j == g.NY-1 || gk == 0 || gk == g.NZ-1 {
				continue
			}
			// Cells i in [i0, i1) of this row lie in the chunk and the interior.
			i0, i1 := max(lo-row*nx, 1), min(hi-row*nx, nx-1)
			if (i0+j+gk)%2 != color {
				i0++
			}
			base := g.Idx(0, j, k)
			for id := base + i0; id < base+i1; id += 2 {
				nb := s.p[id+1] + s.p[id-1] +
					s.p[id+nx] + s.p[id-nx] +
					s.p[id+sv] + s.p[id-sv]
				pNew := (nb - h2*s.div[id]) / 6
				s.p[id] += sorW * (pNew - s.p[id])
			}
		}
	}, nil)
	r.flops += 14 * float64(g.LocalVol()) / 2
	return r.env.Charge(r.kS, float64(g.LocalVol())/2)
}

// project corrects the velocity with the forward-difference pressure
// gradient (see divergenceStar for the operator pairing).
func (r *runner) project() error {
	g := r.st.g
	s := r.st
	invh := 1 / g.h
	r.env.Team.ParallelFor(r.sch, g.LocalVol(), func(_, lin int) {
		i := lin % g.NX
		j := (lin / g.NX) % g.NY
		k := lin / (g.NX * g.NY)
		gk := g.GlobalK(k)
		id := g.Idx(i, j, k)
		if !g.interior(i, j, gk) {
			s.u[id], s.v[id], s.w[id] = s.us[id], s.vs[id], s.ws[id]
			return
		}
		s.u[id] = s.us[id] - dt*(s.p[g.Idx(i+1, j, k)]-s.p[id])*invh
		s.v[id] = s.vs[id] - dt*(s.p[g.Idx(i, j+1, k)]-s.p[id])*invh
		s.w[id] = s.ws[id] - dt*(s.p[g.Idx(i, j, k+1)]-s.p[id])*invh
	}, nil)
	r.flops += 12 * float64(g.LocalVol())
	return r.env.Charge(r.kD, float64(g.LocalVol()))
}

// maxDivergence returns the global max |div f| over interior cells for
// a velocity field triple (halos are refreshed first).
func (r *runner) maxDivergence(fu, fv, fw []float64, tagBase int) (float64, error) {
	g := r.st.g
	invh := 1 / g.h
	if err := r.exchange(fu, tagBase); err != nil {
		return 0, err
	}
	if err := r.exchange(fv, tagBase+2); err != nil {
		return 0, err
	}
	if err := r.exchange(fw, tagBase+4); err != nil {
		return 0, err
	}
	var local float64
	for k := 0; k < g.NZloc; k++ {
		gk := g.GlobalK(k)
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				if !g.interior(i, j, gk) {
					continue
				}
				id := g.Idx(i, j, k)
				d := (fu[id]-fu[g.Idx(i-1, j, k)])*invh +
					(fv[id]-fv[g.Idx(i, j-1, k)])*invh +
					(fw[id]-fw[g.Idx(i, j, k-1)])*invh
				if a := math.Abs(d); a > local {
					local = a
				}
			}
		}
	}
	return r.env.Comm.AllreduceScalar(mpi.OpMax, local)
}

// Run implements common.App.
func (a App) Run(cfg common.RunConfig) (common.Result, error) {
	cfg = cfg.Normalized()
	nx, ny, nz := gridFor(cfg.Size)
	if cfg.Procs == 0 {
		cfg.Procs = 1
	}
	if nz%cfg.Procs != 0 {
		return common.Result{}, fmt.Errorf("ffvc: %d ranks do not divide NZ=%d", cfg.Procs, nz)
	}

	var o outputs
	res, err := common.LaunchApp(a.Name(), cfg, &o, func(env *common.Env) error {
		g, err := NewGrid(nx, ny, nz, env.Procs(), env.Rank())
		if err != nil {
			return err
		}
		r := &runner{
			env: env, st: newState(g),
			sch: omp.Schedule{Kind: omp.Static},
			kA:  advDiffKernel(g.LocalVol(), cfg.Size),
			kS:  sorKernel(g.LocalVol(), cfg.Size),
			kD:  divKernel(g.LocalVol(), cfg.Size),
		}
		r.bc(r.st.u, r.st.v, r.st.w)

		for step := 0; step < steps; step++ {
			for _, f := range [][]float64{r.st.u, r.st.v, r.st.w} {
				if err := r.exchange(f, 10); err != nil {
					return err
				}
			}
			if err := r.advectDiffuse(); err != nil {
				return err
			}
			r.bc(r.st.us, r.st.vs, r.st.ws)
			for _, f := range [][]float64{r.st.us, r.st.vs, r.st.ws} {
				if err := r.exchange(f, 20); err != nil {
					return err
				}
			}
			if err := r.divergenceStar(); err != nil {
				return err
			}
			for sweep := 0; sweep < sweeps; sweep++ {
				for color := 0; color < 2; color++ {
					if err := r.exchange(r.st.p, 30); err != nil {
						return err
					}
					if err := r.sorColor(color); err != nil {
						return err
					}
				}
			}
			if err := r.exchange(r.st.p, 40); err != nil {
				return err
			}
			if err := r.project(); err != nil {
				return err
			}
			r.bc(r.st.u, r.st.v, r.st.w)
		}

		// Verification: the projection must have reduced the divergence
		// of the provisional field, and the final field must be finite.
		pre, err := r.maxDivergence(r.st.us, r.st.vs, r.st.ws, 50)
		if err != nil {
			return err
		}
		dv, err := r.maxDivergence(r.st.u, r.st.v, r.st.w, 60)
		if err != nil {
			return err
		}
		// Lid-driven flow should have developed beneath the lid.
		var localSpeed float64
		for k := 0; k < g.NZloc; k++ {
			if g.GlobalK(k) == g.NZ-2 {
				id := g.Idx(g.NX/2, g.NY/2, k)
				localSpeed = math.Abs(r.st.u[id])
			}
		}
		sp, err := env.Comm.AllreduceScalar(mpi.OpMax, localSpeed)
		if err != nil {
			return err
		}
		fl, err := env.Comm.AllreduceScalar(mpi.OpSum, r.flops)
		if err != nil {
			return err
		}
		if env.Rank() == 0 {
			o = outputs{finalDiv: dv, preDiv: pre, speed: sp, flops: fl}
		}
		return nil
	})
	if err != nil {
		return common.Result{}, fmt.Errorf("ffvc: %w", err)
	}

	out := common.FinishResult(a.Name(), cfg, res)
	out.Flops = o.flops
	out.Check = o.finalDiv
	out.Verified = o.finalDiv < 0.6*o.preDiv && o.speed > 1e-6 && !math.IsNaN(o.finalDiv)
	if out.Time > 0 {
		cells := float64(nx*ny*nz) * steps
		out.Figure = cells / out.Time / 1e6
		out.FigureUnit = "Mcell-updates/s"
	}
	return out, nil
}

// outputs are what a run's numerics decide: the divergence after and
// before the last projection, the flow speed under the lid and the
// node's flops.
type outputs struct {
	finalDiv, preDiv, speed, flops float64
}

func init() { common.Register(App{}) }
