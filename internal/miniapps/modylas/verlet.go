package modylas

// Verlet neighbour lists, the standard MD optimization the original
// MODYLAS also uses: the per-particle partner list from the 5x5x5 cell
// neighbourhood is cached and reused while no particle has crossed a
// cell boundary, instead of rescanning the cells every step. Because
// the near/far split is exactly the cell-geometric one, a list built
// from the same scan order produces bit-identical forces — the tests
// pin that.

import (
	"fibersim/internal/omp"
)

// VerletState caches the neighbour lists of one rank's particle range.
type VerletState struct {
	lo, hi    int
	builtCell []int32   // cell of every particle at build time
	lists     [][]int32 // per owned particle: partner indices in scan order
	valid     bool
	// Rebuilds counts list constructions (for tests and reporting).
	Rebuilds int
}

// NewVerletState prepares an empty cache for particles [lo, hi).
func NewVerletState(lo, hi int) *VerletState {
	return &VerletState{lo: lo, hi: hi}
}

// stillValid reports whether no particle crossed a cell boundary since
// the last build (any crossing can change near/far membership).
func (vs *VerletState) stillValid(s *System) bool {
	if !vs.valid || len(vs.builtCell) != s.N {
		return false
	}
	for i := 0; i < s.N; i++ {
		cx, cy, cz := s.cellOf(s.X[i])
		if s.cellID(cx, cy, cz) != int(vs.builtCell[i]) {
			return false
		}
	}
	return true
}

// build reconstructs the lists with the same cell scan order the
// direct path uses.
func (vs *VerletState) build(s *System, cells [][]int32) {
	vs.Rebuilds++
	vs.valid = true
	if len(vs.builtCell) != s.N {
		vs.builtCell = make([]int32, s.N)
	}
	for i := 0; i < s.N; i++ {
		cx, cy, cz := s.cellOf(s.X[i])
		vs.builtCell[i] = int32(s.cellID(cx, cy, cz))
	}
	if len(vs.lists) != vs.hi-vs.lo {
		vs.lists = make([][]int32, vs.hi-vs.lo)
	}
	for rel := range vs.lists {
		i := vs.lo + rel
		cx, cy, cz := s.cellOf(s.X[i])
		list := vs.lists[rel][:0]
		for dz := -2; dz <= 2; dz++ {
			for dy := -2; dy <= 2; dy++ {
				for dx := -2; dx <= 2; dx++ {
					id := s.cellID(cx+dx, cy+dy, cz+dz)
					if id < 0 {
						continue
					}
					for _, pj := range cells[id] {
						if int(pj) != i {
							list = append(list, pj)
						}
					}
				}
			}
		}
		vs.lists[rel] = list
	}
}

// ForcesVerlet computes the same forces as Forces but drives the near
// field from cached neighbour lists; it returns the pair/cell counts
// plus whether the lists were rebuilt this call.
func (s *System) ForcesVerlet(team *omp.Team, sch omp.Schedule, vs *VerletState,
	f [][3]float64, uPart []float64) (nearPairs, farCells int64, rebuilt bool) {

	cells := s.buildCells()
	mps := s.buildMultipoles(cells)
	m := s.Cells

	if !vs.stillValid(s) {
		vs.build(s, cells)
		rebuilt = true
	}

	counts := make([]int64, team.Threads())
	farCounts := make([]int64, team.Threads())
	team.ParallelFor(sch, vs.hi-vs.lo, func(th, rel int) {
		i := vs.lo + rel
		xi := s.X[i]
		qi := s.Q[i]
		cx, cy, cz := s.cellOf(xi)
		var fi [3]float64
		var ui float64
		for _, pj := range vs.lists[rel] {
			pf, pu := s.pairLJCoulomb(xi, qi, s.X[pj], s.Q[pj])
			for k := 0; k < 3; k++ {
				fi[k] += pf[k]
			}
			ui += pu / 2
		}
		var far int64
		for cz2 := 0; cz2 < m; cz2++ {
			for cy2 := 0; cy2 < m; cy2++ {
				for cx2 := 0; cx2 < m; cx2++ {
					if abs(cx2-cx) <= 2 && abs(cy2-cy) <= 2 && abs(cz2-cz) <= 2 {
						continue
					}
					id := s.cellID(cx2, cy2, cz2)
					pf, pu := farField(s, xi, qi, &mps[id])
					for k := 0; k < 3; k++ {
						fi[k] += pf[k]
					}
					ui += pu / 2
					far++
				}
			}
		}
		f[rel] = fi
		uPart[rel] = ui
		// One write per particle: the team's counters share cache lines.
		counts[th] += int64(len(vs.lists[rel]))
		farCounts[th] += far
	}, nil)
	for _, c := range counts {
		nearPairs += c
	}
	for _, c := range farCounts {
		farCells += c
	}
	return nearPairs, farCells, rebuilt
}
