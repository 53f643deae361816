package nbody

import (
	"fmt"
	"math"
	"sort"
)

// Halo is one friends-of-friends group.
type Halo struct {
	Members []int64 // particle IDs, sorted
	Center  [3]float64
}

// FOF finds friends-of-friends halos: particles closer than the linking
// length belong to the same group (periodic metric); groups smaller
// than minMembers are discarded. This is §2.3's "clusters of particles
// identified by friends of friends (FOF) algorithms within a certain
// distance", implemented with a linked-cell grid and union-find.
func FOF(parts []Particle, linkLen float64, minMembers int) ([]Halo, error) {
	if linkLen <= 0 || linkLen >= 0.5 {
		return nil, fmt.Errorf("nbody: linking length %g outside (0, 0.5)", linkLen)
	}
	n := len(parts)
	if n == 0 {
		return nil, nil
	}
	// Linked-cell grid with cell size >= linkLen: neighbours live in the
	// 27 surrounding cells.
	nc := int(1 / linkLen)
	if nc < 1 {
		nc = 1
	}
	if nc > 128 {
		nc = 128
	}
	cell := func(p [3]float64) int {
		cx := int(p[0] * float64(nc))
		cy := int(p[1] * float64(nc))
		cz := int(p[2] * float64(nc))
		return (cz*nc+cy)*nc + cx
	}
	cells := make(map[int][]int, n)
	for i, p := range parts {
		c := cell(p.Pos)
		cells[c] = append(cells[c], i)
	}
	uf := newUnionFind(n)
	ll2 := linkLen * linkLen
	for i, p := range parts {
		cx := int(p.Pos[0] * float64(nc))
		cy := int(p.Pos[1] * float64(nc))
		cz := int(p.Pos[2] * float64(nc))
		for dz := -1; dz <= 1; dz++ {
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					nx, ny, nz := modc(cx+dx, nc), modc(cy+dy, nc), modc(cz+dz, nc)
					for _, j := range cells[(nz*nc+ny)*nc+nx] {
						if j <= i {
							continue
						}
						if periodicDist2(p.Pos, parts[j].Pos) <= ll2 {
							uf.union(i, j)
						}
					}
				}
			}
		}
	}
	groups := map[int][]int{}
	for i := range parts {
		r := uf.find(i)
		groups[r] = append(groups[r], i)
	}
	var halos []Halo
	for _, idxs := range groups {
		if len(idxs) < minMembers {
			continue
		}
		h := Halo{Members: make([]int64, len(idxs))}
		// Periodic centroid via circular mean per axis.
		var sx, cx, sy, cy, sz, cz float64
		for k, i := range idxs {
			h.Members[k] = parts[i].ID
			sx += math.Sin(2 * math.Pi * parts[i].Pos[0])
			cx += math.Cos(2 * math.Pi * parts[i].Pos[0])
			sy += math.Sin(2 * math.Pi * parts[i].Pos[1])
			cy += math.Cos(2 * math.Pi * parts[i].Pos[1])
			sz += math.Sin(2 * math.Pi * parts[i].Pos[2])
			cz += math.Cos(2 * math.Pi * parts[i].Pos[2])
		}
		h.Center = [3]float64{
			wrapUnit(math.Atan2(sx, cx) / (2 * math.Pi)),
			wrapUnit(math.Atan2(sy, cy) / (2 * math.Pi)),
			wrapUnit(math.Atan2(sz, cz) / (2 * math.Pi)),
		}
		sort.Slice(h.Members, func(a, b int) bool { return h.Members[a] < h.Members[b] })
		halos = append(halos, h)
	}
	// Deterministic order: by size descending, then by first member.
	sort.Slice(halos, func(a, b int) bool {
		if len(halos[a].Members) != len(halos[b].Members) {
			return len(halos[a].Members) > len(halos[b].Members)
		}
		return halos[a].Members[0] < halos[b].Members[0]
	})
	return halos, nil
}

// fofNaive is the O(n²) reference used by tests.
func fofNaive(parts []Particle, linkLen float64, minMembers int) []Halo {
	n := len(parts)
	uf := newUnionFind(n)
	ll2 := linkLen * linkLen
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if periodicDist2(parts[i].Pos, parts[j].Pos) <= ll2 {
				uf.union(i, j)
			}
		}
	}
	groups := map[int][]int{}
	for i := 0; i < n; i++ {
		r := uf.find(i)
		groups[r] = append(groups[r], i)
	}
	var halos []Halo
	for _, idxs := range groups {
		if len(idxs) < minMembers {
			continue
		}
		h := Halo{Members: make([]int64, len(idxs))}
		for k, i := range idxs {
			h.Members[k] = parts[i].ID
		}
		sort.Slice(h.Members, func(a, b int) bool { return h.Members[a] < h.Members[b] })
		halos = append(halos, h)
	}
	sort.Slice(halos, func(a, b int) bool {
		if len(halos[a].Members) != len(halos[b].Members) {
			return len(halos[a].Members) > len(halos[b].Members)
		}
		return halos[a].Members[0] < halos[b].Members[0]
	})
	return halos
}

func modc(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// periodicDist2 is the squared minimum-image distance in the unit box.
func periodicDist2(a, b [3]float64) float64 {
	s := 0.0
	for d := 0; d < 3; d++ {
		dd := math.Abs(a[d] - b[d])
		if dd > 0.5 {
			dd = 1 - dd
		}
		s += dd * dd
	}
	return s
}

// unionFind is a standard weighted quick-union with path halving.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
}
