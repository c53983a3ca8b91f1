package traffic

import (
	"fmt"
	"math"
	"math/bits"
)

// TraceMsg is one message in an application trace.
type TraceMsg struct {
	Dst   int
	Flits int
}

// Trace is a synthetic application communication trace: each source rank
// has a message sequence that the simulator replays cyclically, pacing it
// to the offered load. These generators stand in for the NERSC DOE
// mini-app traces the paper feeds to Booksim in Fig 24 (the original
// trace files are not redistributable); each generator reproduces its
// application's documented communication structure, preserving the
// locality and fan-out contrasts that drive the relative saturation
// results.
type Trace struct {
	Name      string
	N         int
	PerSource [][]TraceMsg
}

// Validate checks that every message targets a valid, non-self rank and
// has a positive size.
func (t *Trace) Validate() error {
	if t.N <= 1 {
		return fmt.Errorf("traffic: trace %q has %d ranks", t.Name, t.N)
	}
	if len(t.PerSource) != t.N {
		return fmt.Errorf("traffic: trace %q has %d source lists for %d ranks", t.Name, len(t.PerSource), t.N)
	}
	for s, msgs := range t.PerSource {
		for _, m := range msgs {
			if m.Dst < 0 || m.Dst >= t.N || m.Dst == s {
				return fmt.Errorf("traffic: trace %q rank %d targets invalid rank %d", t.Name, s, m.Dst)
			}
			if m.Flits <= 0 {
				return fmt.Errorf("traffic: trace %q rank %d has %d-flit message", t.Name, s, m.Flits)
			}
		}
	}
	return nil
}

// grid3 factors n into the most cubic px*py*pz decomposition.
func grid3(n int) (px, py, pz int) {
	px, py, pz = 1, 1, 1
	best := math.MaxFloat64
	for x := 1; x <= n; x++ {
		if n%x != 0 {
			continue
		}
		rem := n / x
		for y := 1; y <= rem; y++ {
			if rem%y != 0 {
				continue
			}
			z := rem / y
			fx, fy, fz := float64(x), float64(y), float64(z)
			spread := math.Abs(fx-fy) + math.Abs(fy-fz) + math.Abs(fx-fz)
			if spread < best {
				best = spread
				px, py, pz = x, y, z
			}
		}
	}
	return
}

// LULESH generates the 27-point 3-D halo exchange of the LULESH shock
// hydrodynamics mini-app: every rank exchanges with its face (large),
// edge (medium) and corner (small) neighbors in a 3-D domain
// decomposition.
func LULESH(n int) (*Trace, error) {
	px, py, pz := grid3(n)
	if px*py*pz != n {
		return nil, fmt.Errorf("traffic: cannot decompose %d ranks", n)
	}
	tr := &Trace{Name: "LULESH", N: n, PerSource: make([][]TraceMsg, n)}
	id := func(x, y, z int) int { return (z*py+y)*px + x }
	for z := 0; z < pz; z++ {
		for y := 0; y < py; y++ {
			for x := 0; x < px; x++ {
				s := id(x, y, z)
				for dz := -1; dz <= 1; dz++ {
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							if dx == 0 && dy == 0 && dz == 0 {
								continue
							}
							nx, ny, nz := x+dx, y+dy, z+dz
							if nx < 0 || nx >= px || ny < 0 || ny >= py || nz < 0 || nz >= pz {
								continue
							}
							order := abs(dx) + abs(dy) + abs(dz)
							size := 16 // face
							switch order {
							case 2:
								size = 4 // edge
							case 3:
								size = 1 // corner
							}
							tr.PerSource[s] = append(tr.PerSource[s], TraceMsg{Dst: id(nx, ny, nz), Flits: size})
						}
					}
				}
			}
		}
	}
	return tr, tr.Validate()
}

// MOCFE generates the structured angular-sweep exchange of the MOCFE-Bone
// neutron-transport mini-app: each octant sweep sends downstream along
// +x/+y/+z (then the mirrored octants), producing strongly directional
// nearest-neighbor traffic.
func MOCFE(n int) (*Trace, error) {
	px, py, pz := grid3(n)
	if px*py*pz != n {
		return nil, fmt.Errorf("traffic: cannot decompose %d ranks", n)
	}
	tr := &Trace{Name: "MOCFE", N: n, PerSource: make([][]TraceMsg, n)}
	id := func(x, y, z int) int { return (z*py+y)*px + x }
	dirs := [][3]int{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {-1, 0, 0}, {0, -1, 0}, {0, 0, -1}}
	for z := 0; z < pz; z++ {
		for y := 0; y < py; y++ {
			for x := 0; x < px; x++ {
				s := id(x, y, z)
				for _, d := range dirs {
					nx, ny, nz := x+d[0], y+d[1], z+d[2]
					if nx < 0 || nx >= px || ny < 0 || ny >= py || nz < 0 || nz >= pz {
						continue
					}
					// Angular flux blocks are large and sent repeatedly
					// per sweep direction.
					tr.PerSource[s] = append(tr.PerSource[s], TraceMsg{Dst: id(nx, ny, nz), Flits: 8})
				}
			}
		}
	}
	return tr, tr.Validate()
}

// Multigrid generates a geometric-multigrid V-cycle: fine levels exchange
// large halos with stride-1 neighbors, each coarser level doubles the
// stride and halves the message size (ranks outside a level stay idle for
// it), plus the restriction/prolongation hops between levels.
func Multigrid(n int) (*Trace, error) {
	if n < 4 {
		return nil, fmt.Errorf("traffic: multigrid needs >= 4 ranks, got %d", n)
	}
	tr := &Trace{Name: "Multigrid", N: n, PerSource: make([][]TraceMsg, n)}
	levels := bits.Len(uint(n)) - 1
	for s := 0; s < n; s++ {
		for l := 0; l < levels; l++ {
			stride := 1 << l
			if s%stride != 0 {
				continue
			}
			size := 16 >> l
			if size < 1 {
				size = 1
			}
			if d := s + stride; d < n {
				tr.PerSource[s] = append(tr.PerSource[s], TraceMsg{Dst: d, Flits: size})
			}
			if d := s - stride; d >= 0 {
				tr.PerSource[s] = append(tr.PerSource[s], TraceMsg{Dst: d, Flits: size})
			}
			// Restriction to the next-coarser owner.
			if next := 2 * stride; s%next != 0 && s%stride == 0 {
				owner := s - s%next
				if owner != s {
					tr.PerSource[s] = append(tr.PerSource[s], TraceMsg{Dst: owner, Flits: 2})
				}
			}
		}
	}
	return tr, tr.Validate()
}

// Nekbone generates the spectral-element Nekbone proxy: ring-style
// nearest-neighbor gather-scatter exchanges plus the recursive-doubling
// allreduce of the conjugate-gradient solve (partners s XOR 2^k, small
// messages).
func Nekbone(n int) (*Trace, error) {
	if n < 4 || n&(n-1) != 0 {
		return nil, fmt.Errorf("traffic: nekbone needs a power-of-two rank count >= 4, got %d", n)
	}
	tr := &Trace{Name: "Nekbone", N: n, PerSource: make([][]TraceMsg, n)}
	b := bits.TrailingZeros(uint(n))
	for s := 0; s < n; s++ {
		// Gather-scatter with ring neighbors.
		tr.PerSource[s] = append(tr.PerSource[s],
			TraceMsg{Dst: (s + 1) % n, Flits: 12},
			TraceMsg{Dst: (s - 1 + n) % n, Flits: 12},
		)
		// Recursive-doubling allreduce.
		for k := 0; k < b; k++ {
			tr.PerSource[s] = append(tr.PerSource[s], TraceMsg{Dst: s ^ (1 << k), Flits: 1})
		}
	}
	return tr, tr.Validate()
}

// NERSCTraces returns the four mini-app traces of Fig 24 at the given
// rank count. The paper duplicates 512/1024-rank traces to fill its 2048
// nodes; our generators parameterize directly.
func NERSCTraces(n int) ([]*Trace, error) {
	l, err := LULESH(n)
	if err != nil {
		return nil, err
	}
	m, err := MOCFE(n)
	if err != nil {
		return nil, err
	}
	g, err := Multigrid(n)
	if err != nil {
		return nil, err
	}
	k, err := Nekbone(n)
	if err != nil {
		return nil, err
	}
	return []*Trace{l, m, g, k}, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
