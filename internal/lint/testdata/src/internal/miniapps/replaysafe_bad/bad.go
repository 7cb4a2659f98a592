// Package fixture is the replaysafe positive fixture. Its fake import
// path places it under internal/miniapps, where a launch is replayed
// across model configs.
package fixture

import (
	"fibersim/internal/miniapps/common"
	"fibersim/internal/mpi"
	"fibersim/internal/omp"
)

func timedPhase(env *common.Env) float64 {
	before := env.Comm.Clock().Now() // want replaysafe
	env.Team.ParallelRange(omp.Schedule{}, 8, func(_, lo, hi int) {}, nil)
	return env.Team.Clock().Now() - before // want replaysafe
}

func viaHandles(c *mpi.Comm, t *omp.Team) bool {
	return c.Clock().Now() > t.Clock().Now() // want replaysafe replaysafe
}

func branchesOnAxes(cfg common.RunConfig) int {
	n := 16
	if cfg.Machine.Name == "a64fx" { // want replaysafe
		n = 32
	}
	if cfg.NodeStride > 0 { // want replaysafe
		n++
	}
	_ = cfg.Compiler // want replaysafe
	p := &cfg
	return n + int(p.Alloc) + p.Bind.Stride // want replaysafe replaysafe
}
