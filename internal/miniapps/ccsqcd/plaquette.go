package ccsqcd

// The average plaquette, the standard gauge observable every lattice
// code measures: Re Tr (U_mu(x) U_nu(x+mu) U_mu†(x+nu) U_nu†(x)) / 3,
// averaged over all sites and the six plane orientations. On the unit
// gauge it is exactly 1; on strongly randomized links it averages near
// zero.

// AveragePlaquette measures the slab's interior sites (halos supply
// the cross-boundary links).
func (u *Gauge) AveragePlaquette() float64 {
	g := u.g
	var sum float64
	count := 0
	link := func(mu, x, y, z, t int) *SU3 {
		return &u.U[mu][g.Index(x, y, z, t)]
	}
	for t := 0; t < g.LTloc; t++ {
		for z := 0; z < g.LZ; z++ {
			for y := 0; y < g.LY; y++ {
				for x := 0; x < g.LX; x++ {
					for p := 0; p < 6; p++ {
						mu, nu := cloverPairs[p][0], cloverPairs[p][1]
						x1, y1, z1, t1 := g.neighbor(x, y, z, t, mu, +1)
						x2, y2, z2, t2 := g.neighbor(x, y, z, t, nu, +1)
						a := mul3(link(mu, x, y, z, t), link(nu, x1, y1, z1, t1))
						bm := mul3(link(mu, x2, y2, z2, t2), link(nu, x, y, z, t))
						pl := mulDag(&a, &bm)
						sum += real(pl[0]+pl[4]+pl[8]) / 3
						count++
					}
				}
			}
		}
	}
	return sum / float64(count)
}
