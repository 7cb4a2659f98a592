package harness

import (
	"fmt"

	"fibersim/internal/arch"
	"fibersim/internal/core"
	"fibersim/internal/mpi"
	"fibersim/internal/simnet"
	"fibersim/internal/vtime"
)

// FigMultiNode is an extension beyond the paper's single-node study:
// weak scaling of a halo-exchange + allreduce proxy application across
// simulated nodes, comparing the A64FX's Tofu-D against InfiniBand EDR.
// It exercises the inter-node fabric models end to end.
func FigMultiNode(o Options) (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "Extension: multi-node weak scaling of a halo+allreduce proxy (4 ranks/node)",
		Columns: []string{"nodes", "tofud time", "tofud eff", "infiniband time", "infiniband eff"},
	}

	nodes := []int{1, 2, 4, 8, 16}
	iterations := 50
	haloElems := 16 << 10 // 128 KiB halo per direction
	if o.Size == 0 {      // SizeTest: keep it light
		iterations = 10
		haloElems = 4 << 10
	}

	run := func(fabricName string, n int) (float64, error) {
		m := arch.MustLookup("a64fx")
		mdl := core.NewModel(m)
		// One CMG per rank, 4 ranks per node.
		cores := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
		kern := core.MustKernel(core.Kernel{
			Name: "proxy-stencil", FlopsPerIter: 60, FMAFrac: 0.7,
			LoadBytesPerIter: 96, StoreBytesPerIter: 24,
			VectorizableFrac: 0.95, AutoVecFrac: 0.9,
			Pattern: core.PatternStream, WorkingSetBytes: 1 << 28,
		})
		cfg := mpi.Config{
			Ranks:        4 * n,
			RanksPerNode: 4,
			Fabric:       simnet.MustLookup(fabricName),
		}
		// Topology: Tofu is a torus with hop-dependent latency; the
		// InfiniBand cluster is a two-level fat tree (constant hops).
		if fabricName == "tofud" {
			cfg.Topology = simnet.TofuDTopology(n)
		} else {
			cfg.Topology = simnet.FatTreeHops(3)
		}
		res, err := mpi.Run(cfg, func(c *mpi.Comm) error {
			ex := core.Exec{ThreadCores: cores, HomeDomain: -1, Compiler: core.AsIs()}
			right := (c.Rank() + 1) % c.Size()
			left := (c.Rank() - 1 + c.Size()) % c.Size()
			halo := make([]float64, haloElems)
			for it := 0; it < iterations; it++ {
				if _, err := mdl.Charge(c.Clock(), kern, 1e5, ex); err != nil {
					return err
				}
				if err := c.SendrecvInto(right, 1, halo, left, 1, halo); err != nil {
					return err
				}
				if err := c.SendrecvInto(left, 2, halo, right, 2, halo); err != nil {
					return err
				}
				if _, err := c.AllreduceScalar(mpi.OpSum, 1); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		return res.MaxTime(), nil
	}

	var baseT, baseI float64
	for _, n := range nodes {
		tt, err := run("tofud", n)
		if err != nil {
			return nil, fmt.Errorf("harness: multinode tofud %d: %w", n, err)
		}
		ti, err := run("infiniband", n)
		if err != nil {
			return nil, fmt.Errorf("harness: multinode infiniband %d: %w", n, err)
		}
		if n == 1 {
			baseT, baseI = tt, ti
		}
		t.AddRow(fmt.Sprint(n),
			vtime.Format(tt), fmt.Sprintf("%.0f%%", baseT/tt*100),
			vtime.Format(ti), fmt.Sprintf("%.0f%%", baseI/ti*100))
	}
	t.Notes = append(t.Notes,
		"weak scaling: per-rank work constant, so 100% efficiency = flat time; the fabric's latency sets the efficiency loss",
		"extension beyond the paper (its evaluation is single-node); exercises the inter-node fabric models")
	return t, nil
}
