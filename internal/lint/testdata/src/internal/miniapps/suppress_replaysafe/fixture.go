// Package fixture exercises //fiberlint:ignore on replaysafe: only the
// unsuppressed read may report.
package fixture

import "fibersim/internal/miniapps/common"

func suppressed(env *common.Env) float64 {
	//fiberlint:ignore replaysafe the value only labels a log line
	return env.Comm.Clock().Now()
}

func trailing(cfg common.RunConfig) string {
	return cfg.Machine.Name //fiberlint:ignore replaysafe report label, not numerics
}

func unsuppressed(cfg common.RunConfig) bool {
	return cfg.NodeStride > 0 // want replaysafe
}
