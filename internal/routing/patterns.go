package routing

import (
	"fmt"
	"math/bits"

	"bfvlsi/internal/detrng"
)

// Pattern selects the destination distribution of injected packets.
type Pattern int

const (
	// Uniform sends every packet to an independently uniform node.
	Uniform Pattern = iota
	// BitReverse sends (row, col) to (reverse(row), col): the classic
	// butterfly adversary - all bit-reversal paths collide in the middle.
	BitReverse
	// Transpose sends row r to row with halves swapped (r_hi r_lo ->
	// r_lo r_hi), same column; another standard permutation stressor.
	Transpose
	// Complement sends row r to ^r (all bits flipped), same column.
	Complement
	// Shuffle sends row r to its left cyclic shift (r1 r2 ... r_{n-1} r0),
	// same column: the perfect-shuffle permutation, the third classic
	// butterfly adversary alongside transpose and bit-reversal. Every
	// packet must correct the single rotated bit disagreement pattern,
	// and the shifted addresses funnel whole row halves through the
	// same cross links.
	Shuffle
)

// Valid reports whether p is one of the patterns above. NewSim and
// RestoreSim reject any other.
func (p Pattern) Valid() bool { return p >= Uniform && p <= Shuffle }

func (p Pattern) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case BitReverse:
		return "bit-reverse"
	case Transpose:
		return "transpose"
	case Complement:
		return "complement"
	case Shuffle:
		return "shuffle"
	default:
		return fmt.Sprintf("pattern(%d)", int(p))
	}
}

// destFor returns the destination of a packet injected at (row, col)
// under the valid pattern p.
func destFor(p Pattern, n, rows, row, col int, rng *detrng.Source) (dr, dc int) {
	switch p {
	case Uniform:
		return rng.Intn(rows), rng.Intn(n)
	case BitReverse:
		return int(bits.Reverse64(uint64(row)) >> uint(64-n)), col
	case Transpose:
		h := n / 2
		lo := row & ((1 << uint(h)) - 1)
		hi := row >> uint(h)
		// For odd n the middle bit stays put.
		mid := 0
		if n%2 == 1 {
			mid = (row >> uint(h)) & 1
			hi = row >> uint(h+1)
			return lo<<uint(h+1) | mid<<uint(h) | hi, col
		}
		return lo<<uint(h) | hi, col
	case Complement:
		return row ^ (rows - 1), col
	default: // Shuffle
		return ((row << 1) | (row >> uint(n-1))) & (rows - 1), col
	}
}

// SimulatePattern runs the simulation with a non-uniform destination
// pattern. It shares all mechanics with Simulate; Params.Lambda etc.
// apply unchanged.
func SimulatePattern(p Params, pattern Pattern) (*Result, error) {
	if pattern == Uniform {
		return Simulate(p)
	}
	return simulate(p, pattern)
}
