// Package ffb reproduces the FFB-mini miniapp (FrontFlow/blue, U.
// Tokyo): a finite-element flow solver whose dominant kernel is the
// element-by-element (EBE) sparse matrix-vector product with indirect
// gather/scatter addressing, driving a conjugate-gradient pressure
// solve. The element stiffness matrices are genuine trilinear
// hexahedral Laplacians integrated with 2x2x2 Gauss quadrature.
package ffb

import (
	"fmt"
	"math"

	"fibersim/internal/core"
	"fibersim/internal/miniapps/common"
	"fibersim/internal/mpi"
	"fibersim/internal/omp"
)

// Mesh is one rank's slab of a structured hex mesh stored
// unstructured: elements carry explicit 8-node connectivity.
type Mesh struct {
	NX, NY, NZ int // global node extents
	EZ         int // global element layers in z (NZ-1)
	Procs      int
	Rank       int
	EZloc      int        // element layers owned by this rank
	ZNode0     int        // first global node plane stored locally
	NZnodes    int        // node planes stored locally (EZloc+1)
	Conn       [][8]int32 // element -> local node ids
	H          float64    // element edge length
}

// NewMesh builds the rank's slab; procs must divide the element layers.
func NewMesh(nx, ny, nz, procs, rank int) (*Mesh, error) {
	if nx < 3 || ny < 3 || nz < 3 {
		return nil, fmt.Errorf("ffb: mesh %dx%dx%d too small", nx, ny, nz)
	}
	ez := nz - 1
	if procs < 1 || ez%procs != 0 {
		return nil, fmt.Errorf("ffb: %d ranks do not divide %d element layers", procs, ez)
	}
	m := &Mesh{
		NX: nx, NY: ny, NZ: nz, EZ: ez, Procs: procs, Rank: rank,
		EZloc: ez / procs, H: 1.0 / float64(nx-1),
	}
	m.ZNode0 = rank * m.EZloc
	m.NZnodes = m.EZloc + 1
	// Connectivity: elements ordered x-fastest.
	exy := (nx - 1) * (ny - 1)
	m.Conn = make([][8]int32, exy*m.EZloc)
	e := 0
	for kz := 0; kz < m.EZloc; kz++ {
		for jy := 0; jy < ny-1; jy++ {
			for ix := 0; ix < nx-1; ix++ {
				n0 := m.NodeID(ix, jy, kz)
				m.Conn[e] = [8]int32{
					int32(n0), int32(m.NodeID(ix+1, jy, kz)),
					int32(m.NodeID(ix+1, jy+1, kz)), int32(m.NodeID(ix, jy+1, kz)),
					int32(m.NodeID(ix, jy, kz+1)), int32(m.NodeID(ix+1, jy, kz+1)),
					int32(m.NodeID(ix+1, jy+1, kz+1)), int32(m.NodeID(ix, jy+1, kz+1)),
				}
				e++
			}
		}
	}
	return m, nil
}

// NodeID returns the local id of node (x, y, zLocal).
func (m *Mesh) NodeID(x, y, zLocal int) int {
	return x + m.NX*(y+m.NY*zLocal)
}

// LocalNodes returns the stored node count.
func (m *Mesh) LocalNodes() int { return m.NX * m.NY * m.NZnodes }

// PlaneNodes returns nodes per z-plane.
func (m *Mesh) PlaneNodes() int { return m.NX * m.NY }

// OwnsPlane reports whether this rank owns the dot-product
// contribution of local plane z (shared planes belong to the lower
// rank; the global top plane belongs to the last rank).
func (m *Mesh) OwnsPlane(zLocal int) bool {
	if zLocal < 0 || zLocal >= m.NZnodes {
		return false
	}
	if zLocal < m.EZloc {
		return true
	}
	// Top stored plane: owned only if it is the global top.
	return m.ZNode0+zLocal == m.NZ-1
}

// Boundary reports whether a local node lies on the global boundary
// (Dirichlet).
func (m *Mesh) Boundary(id int) bool {
	x := id % m.NX
	y := (id / m.NX) % m.NY
	z := m.ZNode0 + id/(m.NX*m.NY)
	return x == 0 || x == m.NX-1 || y == 0 || y == m.NY-1 || z == 0 || z == m.NZ-1
}

// elementLaplacian integrates the 8x8 stiffness matrix of a trilinear
// hexahedron with edge h using 2x2x2 Gauss quadrature.
func elementLaplacian(h float64) [8][8]float64 {
	// Reference nodes of the [-1,1]^3 hex.
	sign := [8][3]float64{
		{-1, -1, -1}, {1, -1, -1}, {1, 1, -1}, {-1, 1, -1},
		{-1, -1, 1}, {1, -1, 1}, {1, 1, 1}, {-1, 1, 1},
	}
	gp := []float64{-1 / math.Sqrt(3), 1 / math.Sqrt(3)}
	var K [8][8]float64
	jac := h / 2            // dx/dxi
	detJ := jac * jac * jac // volume scale
	invJ := 1 / jac
	for _, gx := range gp {
		for _, gy := range gp {
			for _, gz := range gp {
				// Shape function gradients at the Gauss point, physical coords.
				var grad [8][3]float64
				for a := 0; a < 8; a++ {
					sx, sy, sz := sign[a][0], sign[a][1], sign[a][2]
					grad[a][0] = sx * (1 + sy*gy) * (1 + sz*gz) / 8 * invJ
					grad[a][1] = sy * (1 + sx*gx) * (1 + sz*gz) / 8 * invJ
					grad[a][2] = sz * (1 + sx*gx) * (1 + sy*gy) / 8 * invJ
				}
				for a := 0; a < 8; a++ {
					for b := 0; b < 8; b++ {
						K[a][b] += detJ * (grad[a][0]*grad[b][0] +
							grad[a][1]*grad[b][1] + grad[a][2]*grad[b][2])
					}
				}
			}
		}
	}
	return K
}

// kernels

func ebeKernel(elements int, size common.Size) core.Kernel {
	elements *= int(common.WorkingSetScale(size))
	return core.MustKernel(core.Kernel{
		Name:              "ebe-matvec",
		FlopsPerIter:      128, // 8x8 dense matvec per element
		FMAFrac:           0.9,
		LoadBytesPerIter:  8*8 + 8*4 + 64, // gather x, connectivity, cached K share
		StoreBytesPerIter: 8 * 8,          // scatter-add
		VectorizableFrac:  0.75,           // gather/scatter limits SVE use
		AutoVecFrac:       0.30,           // the as-is code barely vectorizes
		DepChainPenalty:   0.8,            // scatter dependencies
		Pattern:           core.PatternGather,
		WorkingSetBytes:   int64(elements) * 100,
	})
}

func cgKernel(nodes int, size common.Size) core.Kernel {
	nodes *= int(common.WorkingSetScale(size))
	return core.MustKernel(core.Kernel{
		Name:              "cg-linalg",
		FlopsPerIter:      4,
		FMAFrac:           1,
		LoadBytesPerIter:  16,
		StoreBytesPerIter: 8,
		VectorizableFrac:  1,
		AutoVecFrac:       1,
		Pattern:           core.PatternStream,
		WorkingSetBytes:   int64(nodes) * 8 * 6,
	})
}

// App is the FFB miniapp.
type App struct{}

// Name returns the registry key.
func (App) Name() string { return "ffb" }

// Description returns the Table 2 entry.
func (App) Description() string {
	return "FEM flow pressure solve, element-by-element CG with indirect addressing (FFB-mini, U. Tokyo)"
}

// meshFor returns node extents per size; 48 element layers keep every
// decomposition valid.
func meshFor(size common.Size) (nx, ny, nz int) {
	switch size {
	case common.SizeTest:
		return 9, 9, 17 // 8x8x16 elements
	case common.SizeSmall:
		return 17, 17, 49 // 16x16x48 elements
	default:
		return 25, 25, 49
	}
}

// Kernels implements common.App.
func (App) Kernels(size common.Size) []core.Kernel {
	nx, ny, nz := meshFor(size)
	return []core.Kernel{
		ebeKernel((nx-1)*(ny-1)*(nz-1), size),
		cgKernel(nx*ny*nz, size),
	}
}

type solver struct {
	env   *common.Env
	m     *Mesh
	K     [8][8]float64
	sch   omp.Schedule
	kE    core.Kernel
	kL    core.Kernel
	flops float64
	iters int
}

// exchangeAdd sums the interface-plane contributions of y with both
// neighbours (additive Schwarz-style assembly across the slab cut).
func (s *solver) exchangeAdd(y []float64) error {
	m := s.m
	pn := m.PlaneNodes()
	c := s.env.Comm
	top := y[m.NodeID(0, 0, m.NZnodes-1) : m.NodeID(0, 0, m.NZnodes-1)+pn]
	bottom := y[m.NodeID(0, 0, 0) : m.NodeID(0, 0, 0)+pn]
	// Exchange with upper neighbour: our top plane is their bottom.
	if m.Rank < m.Procs-1 {
		got, err := c.Sendrecv(m.Rank+1, 200, top, m.Rank+1, 201)
		if err != nil {
			return err
		}
		for i := range top {
			top[i] += got[i]
		}
	}
	if m.Rank > 0 {
		got, err := c.Sendrecv(m.Rank-1, 201, bottom, m.Rank-1, 200)
		if err != nil {
			return err
		}
		for i := range bottom {
			bottom[i] += got[i]
		}
	}
	return nil
}

// matvec computes y = A x element by element; x must be consistent on
// shared planes.
func (s *solver) matvec(y, x []float64) error {
	m := s.m
	for i := range y {
		y[i] = 0
	}
	// Parallelize over element layers to keep scatter-adds disjoint per
	// thread is not possible (adjacent layers share planes), so use a
	// per-thread accumulation into the shared array guarded by layer
	// coloring: even layers then odd layers.
	exy := (m.NX - 1) * (m.NY - 1)
	for parity := 0; parity < 2; parity++ {
		layers := 0
		for kz := parity; kz < m.EZloc; kz += 2 {
			layers++
		}
		if layers == 0 {
			continue
		}
		s.env.Team.ParallelFor(s.sch, layers, func(_, li int) {
			kz := parity + 2*li
			for e := kz * exy; e < (kz+1)*exy; e++ {
				conn := &m.Conn[e]
				var xe [8]float64
				for a := 0; a < 8; a++ {
					xe[a] = x[conn[a]]
				}
				for a := 0; a < 8; a++ {
					var acc float64
					for b := 0; b < 8; b++ {
						acc += s.K[a][b] * xe[b]
					}
					y[conn[a]] += acc
				}
			}
		}, nil)
	}
	s.flops += 128 * float64(len(m.Conn))
	if err := s.env.Charge(s.kE, float64(len(m.Conn))); err != nil {
		return err
	}
	return s.exchangeAdd(y)
}

// maskBoundary zeroes Dirichlet rows.
func (s *solver) maskBoundary(v []float64) {
	for i := range v {
		if s.m.Boundary(i) {
			v[i] = 0
		}
	}
}

// dot computes the global inner product over owned nodes.
func (s *solver) dot(a, b []float64) (float64, error) {
	m := s.m
	pn := m.PlaneNodes()
	var local float64
	for z := 0; z < m.NZnodes; z++ {
		if !m.OwnsPlane(z) {
			continue
		}
		off := m.NodeID(0, 0, z)
		for i := 0; i < pn; i++ {
			local += a[off+i] * b[off+i]
		}
	}
	if err := s.env.Charge(s.kL, float64(m.LocalNodes())); err != nil {
		return 0, err
	}
	return s.env.Comm.AllreduceScalar(mpi.OpSum, local)
}

// cg solves A x = b with Dirichlet masking; returns the relative
// residual.
func (s *solver) cg(x, b []float64, maxIter int, tol float64) (float64, error) {
	m := s.m
	n := m.LocalNodes()
	r := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)

	copy(r, b)
	s.maskBoundary(r)
	copy(p, r)
	rr, err := s.dot(r, r)
	if err != nil {
		return 0, err
	}
	b2 := rr
	if b2 == 0 {
		return 0, nil
	}
	for it := 0; it < maxIter && math.Sqrt(rr/b2) > tol; it++ {
		s.iters++
		if err := s.matvec(ap, p); err != nil {
			return 0, err
		}
		s.maskBoundary(ap)
		pap, err := s.dot(p, ap)
		if err != nil {
			return 0, err
		}
		if pap == 0 {
			return math.Inf(1), fmt.Errorf("ffb: CG breakdown")
		}
		alpha := rr / pap
		s.env.Team.ParallelFor(s.sch, n, func(_, i int) {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}, nil)
		if err := s.env.Charge(s.kL, float64(2*n)); err != nil {
			return 0, err
		}
		rrNew, err := s.dot(r, r)
		if err != nil {
			return 0, err
		}
		beta := rrNew / rr
		s.env.Team.ParallelFor(s.sch, n, func(_, i int) {
			p[i] = r[i] + beta*p[i]
		}, nil)
		if err := s.env.Charge(s.kL, float64(n)); err != nil {
			return 0, err
		}
		rr = rrNew
	}
	return math.Sqrt(rr / b2), nil
}

// Run implements common.App.
func (a App) Run(cfg common.RunConfig) (common.Result, error) {
	cfg = cfg.Normalized()
	nx, ny, nz := meshFor(cfg.Size)
	if cfg.Procs == 0 {
		cfg.Procs = 1
	}
	if (nz-1)%cfg.Procs != 0 {
		return common.Result{}, fmt.Errorf("ffb: %d ranks do not divide %d element layers", cfg.Procs, nz-1)
	}

	var o outputs
	res, err := common.LaunchApp(a.Name(), cfg, &o, func(env *common.Env) error {
		m, err := NewMesh(nx, ny, nz, env.Procs(), env.Rank())
		if err != nil {
			return err
		}
		s := &solver{
			env: env, m: m, K: elementLaplacian(m.H),
			sch: omp.Schedule{Kind: omp.Static},
			kE:  ebeKernel(len(m.Conn), cfg.Size),
			kL:  cgKernel(m.LocalNodes(), cfg.Size),
		}

		// RHS: uniform unit source, consistent FEM load vector
		// (h^3/8 per element-node incidence).
		n := m.LocalNodes()
		b := make([]float64, n)
		load := m.H * m.H * m.H / 8
		for _, conn := range m.Conn {
			for a := 0; a < 8; a++ {
				b[conn[a]] += load
			}
		}
		if err := s.exchangeAdd(b); err != nil {
			return err
		}
		s.maskBoundary(b)

		x := make([]float64, n)
		rr, err := s.cg(x, b, 500, 1e-10)
		if err != nil {
			return err
		}

		// Solution of -lap u = 1 on the unit cube peaks near 0.056.
		var localMax float64
		for i := range x {
			if x[i] > localMax {
				localMax = x[i]
			}
		}
		mx, err := env.Comm.AllreduceScalar(mpi.OpMax, localMax)
		if err != nil {
			return err
		}
		fl, err := env.Comm.AllreduceScalar(mpi.OpSum, s.flops)
		if err != nil {
			return err
		}
		if env.Rank() == 0 {
			o = outputs{residual: rr, flops: fl, iters: s.iters, maxU: mx}
		}
		return nil
	})
	if err != nil {
		return common.Result{}, fmt.Errorf("ffb: %w", err)
	}

	out := common.FinishResult(a.Name(), cfg, res)
	out.Flops = o.flops
	out.Check = o.residual
	out.Verified = o.residual < 1e-8 && o.maxU > 0.03 && o.maxU < 0.09
	out.Figure = float64(o.iters)
	out.FigureUnit = "CG iterations"
	return out, nil
}

// outputs are what a run's numerics decide: the CG residual, the node's
// flops, the CG iterations and the solution's peak.
type outputs struct {
	residual, flops float64
	iters           int
	maxU            float64
}

func init() { common.Register(App{}) }
