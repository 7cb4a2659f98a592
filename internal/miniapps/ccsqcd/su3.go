// Package ccsqcd reproduces the CCS QCD miniapp (University of
// Tsukuba): a lattice-QCD linear solver applying the Wilson fermion
// operator on a 4-D lattice of SU(3) gauge links, solved with
// BiCGStab — the same kernel/solver pair as the original Fortran code.
package ccsqcd

import "math"

// SU3 is a 3x3 complex color matrix stored row-major.
type SU3 [9]complex128

// mulVec returns m·v for the colour vector v = (v0, v1, v2). Colour
// vectors travel as three complex128 values, not as an array, so that
// the compiler keeps them in registers.
func (m *SU3) mulVec(v0, v1, v2 complex128) (complex128, complex128, complex128) {
	return m[0]*v0 + m[1]*v1 + m[2]*v2,
		m[3]*v0 + m[4]*v1 + m[5]*v2,
		m[6]*v0 + m[7]*v1 + m[8]*v2
}

// dagMulVec returns m†·v, reading the adjoint in place.
func (m *SU3) dagMulVec(v0, v1, v2 complex128) (complex128, complex128, complex128) {
	return conj(m[0])*v0 + conj(m[3])*v1 + conj(m[6])*v2,
		conj(m[1])*v0 + conj(m[4])*v1 + conj(m[7])*v2,
		conj(m[2])*v0 + conj(m[5])*v1 + conj(m[8])*v2
}

// conj returns the complex conjugate.
func conj(x complex128) complex128 { return complex(real(x), -imag(x)) }

// The 3x3 colour products a·b, a·b†, a†·b and a†·b†, unrolled. Each
// entry sums its three terms left to right, and the adjoint factors
// are read in place: entry (i,j) of b† is conj(b[3j+i]).

func mul3(a, b *SU3) SU3 {
	return SU3{
		a[0]*b[0] + a[1]*b[3] + a[2]*b[6],
		a[0]*b[1] + a[1]*b[4] + a[2]*b[7],
		a[0]*b[2] + a[1]*b[5] + a[2]*b[8],
		a[3]*b[0] + a[4]*b[3] + a[5]*b[6],
		a[3]*b[1] + a[4]*b[4] + a[5]*b[7],
		a[3]*b[2] + a[4]*b[5] + a[5]*b[8],
		a[6]*b[0] + a[7]*b[3] + a[8]*b[6],
		a[6]*b[1] + a[7]*b[4] + a[8]*b[7],
		a[6]*b[2] + a[7]*b[5] + a[8]*b[8],
	}
}

func mulDag(a, b *SU3) SU3 {
	return SU3{
		a[0]*conj(b[0]) + a[1]*conj(b[1]) + a[2]*conj(b[2]),
		a[0]*conj(b[3]) + a[1]*conj(b[4]) + a[2]*conj(b[5]),
		a[0]*conj(b[6]) + a[1]*conj(b[7]) + a[2]*conj(b[8]),
		a[3]*conj(b[0]) + a[4]*conj(b[1]) + a[5]*conj(b[2]),
		a[3]*conj(b[3]) + a[4]*conj(b[4]) + a[5]*conj(b[5]),
		a[3]*conj(b[6]) + a[4]*conj(b[7]) + a[5]*conj(b[8]),
		a[6]*conj(b[0]) + a[7]*conj(b[1]) + a[8]*conj(b[2]),
		a[6]*conj(b[3]) + a[7]*conj(b[4]) + a[8]*conj(b[5]),
		a[6]*conj(b[6]) + a[7]*conj(b[7]) + a[8]*conj(b[8]),
	}
}

func dagMul(a, b *SU3) SU3 {
	return SU3{
		conj(a[0])*b[0] + conj(a[3])*b[3] + conj(a[6])*b[6],
		conj(a[0])*b[1] + conj(a[3])*b[4] + conj(a[6])*b[7],
		conj(a[0])*b[2] + conj(a[3])*b[5] + conj(a[6])*b[8],
		conj(a[1])*b[0] + conj(a[4])*b[3] + conj(a[7])*b[6],
		conj(a[1])*b[1] + conj(a[4])*b[4] + conj(a[7])*b[7],
		conj(a[1])*b[2] + conj(a[4])*b[5] + conj(a[7])*b[8],
		conj(a[2])*b[0] + conj(a[5])*b[3] + conj(a[8])*b[6],
		conj(a[2])*b[1] + conj(a[5])*b[4] + conj(a[8])*b[7],
		conj(a[2])*b[2] + conj(a[5])*b[5] + conj(a[8])*b[8],
	}
}

func dagDag(a, b *SU3) SU3 {
	return SU3{
		conj(a[0])*conj(b[0]) + conj(a[3])*conj(b[1]) + conj(a[6])*conj(b[2]),
		conj(a[0])*conj(b[3]) + conj(a[3])*conj(b[4]) + conj(a[6])*conj(b[5]),
		conj(a[0])*conj(b[6]) + conj(a[3])*conj(b[7]) + conj(a[6])*conj(b[8]),
		conj(a[1])*conj(b[0]) + conj(a[4])*conj(b[1]) + conj(a[7])*conj(b[2]),
		conj(a[1])*conj(b[3]) + conj(a[4])*conj(b[4]) + conj(a[7])*conj(b[5]),
		conj(a[1])*conj(b[6]) + conj(a[4])*conj(b[7]) + conj(a[7])*conj(b[8]),
		conj(a[2])*conj(b[0]) + conj(a[5])*conj(b[1]) + conj(a[8])*conj(b[2]),
		conj(a[2])*conj(b[3]) + conj(a[5])*conj(b[4]) + conj(a[8])*conj(b[5]),
		conj(a[2])*conj(b[6]) + conj(a[5])*conj(b[7]) + conj(a[8])*conj(b[8]),
	}
}

// unitarize projects m onto (approximately) SU(3) by Gram-Schmidt on
// its rows; the determinant phase is left free, which is harmless for
// the solver.
func (m *SU3) unitarize() {
	rows := [3][3]complex128{
		{m[0], m[1], m[2]},
		{m[3], m[4], m[5]},
		{m[6], m[7], m[8]},
	}
	dot := func(a, b [3]complex128) complex128 {
		var s complex128
		for i := 0; i < 3; i++ {
			s += complex(real(a[i]), -imag(a[i])) * b[i]
		}
		return s
	}
	norm := func(a [3]complex128) float64 {
		return math.Sqrt(real(dot(a, a)))
	}
	// Row 0: normalize.
	n0 := norm(rows[0])
	for i := range rows[0] {
		rows[0][i] /= complex(n0, 0)
	}
	// Row 1: orthogonalize against row 0, normalize.
	p := dot(rows[0], rows[1])
	for i := range rows[1] {
		rows[1][i] -= p * rows[0][i]
	}
	n1 := norm(rows[1])
	for i := range rows[1] {
		rows[1][i] /= complex(n1, 0)
	}
	// Row 2: cross product of conjugates makes the matrix unitary.
	rows[2] = [3]complex128{
		conj(rows[0][1]*rows[1][2] - rows[0][2]*rows[1][1]),
		conj(rows[0][2]*rows[1][0] - rows[0][0]*rows[1][2]),
		conj(rows[0][0]*rows[1][1] - rows[0][1]*rows[1][0]),
	}
	for r := 0; r < 3; r++ {
		for cc := 0; cc < 3; cc++ {
			m[3*r+cc] = rows[r][cc]
		}
	}
}
