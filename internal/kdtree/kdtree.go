// Package kdtree implements a k-d tree over points in R^k with
// k-nearest-neighbour queries. The paper's similar-spectrum search
// (§2.2) "builds a kd-tree over the [PCA] coefficients so nearest
// neighbor searches can be executed very quickly"; package spectra uses
// this tree for exactly that.
package kdtree

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
)

// errDim reports a query whose dimensionality does not match the tree.
var errDim = errors.New("kdtree: dimension mismatch")

// Point is one indexed point: coordinates plus the caller's identifier.
type Point struct {
	Coords []float64
	ID     int64
}

// Tree is an immutable k-d tree built once over a point set.
type Tree struct {
	dim   int
	pts   []Point // reordered in place; node i's point is pts[mid]
	nodes []node
	root  int
}

type node struct {
	ptIdx       int // index into pts
	axis        int
	left, right int // node indexes, -1 = leaf edge
}

// Build constructs a tree over the given points (the slice is reordered).
func Build(pts []Point, dim int) (*Tree, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("kdtree: dimension %d", dim)
	}
	for i := range pts {
		if len(pts[i].Coords) != dim {
			return nil, fmt.Errorf("%w: point %d has %d coords, want %d",
				errDim, i, len(pts[i].Coords), dim)
		}
	}
	t := &Tree{dim: dim, pts: pts, root: -1}
	if len(pts) > 0 {
		t.nodes = make([]node, 0, len(pts))
		t.root = t.build(0, len(pts), 0)
	}
	return t, nil
}

// build recursively median-splits pts[lo:hi) on the cycling axis.
func (t *Tree) build(lo, hi, depth int) int {
	if lo >= hi {
		return -1
	}
	axis := depth % t.dim
	mid := (lo + hi) / 2
	nthElement(t.pts[lo:hi], mid-lo, axis)
	idx := len(t.nodes)
	t.nodes = append(t.nodes, node{ptIdx: mid, axis: axis, left: -1, right: -1})
	left := t.build(lo, mid, depth+1)
	right := t.build(mid+1, hi, depth+1)
	t.nodes[idx].left = left
	t.nodes[idx].right = right
	return idx
}

// nthElement partially sorts so that pts[n] is the n-th point by the
// axis coordinate (quickselect).
func nthElement(pts []Point, n, axis int) {
	lo, hi := 0, len(pts)-1
	for lo < hi {
		p := pts[(lo+hi)/2].Coords[axis]
		i, j := lo, hi
		for i <= j {
			for pts[i].Coords[axis] < p {
				i++
			}
			for pts[j].Coords[axis] > p {
				j--
			}
			if i <= j {
				pts[i], pts[j] = pts[j], pts[i]
				i++
				j--
			}
		}
		if n <= j {
			hi = j
		} else if n >= i {
			lo = i
		} else {
			return
		}
	}
}

// Neighbor is one k-NN result.
type Neighbor struct {
	Point Point
	Dist2 float64
}

// resultHeap is a max-heap on Dist2 (the worst current candidate on top).
type resultHeap []Neighbor

func (h resultHeap) Len() int           { return len(h) }
func (h resultHeap) Less(i, j int) bool { return h[i].Dist2 > h[j].Dist2 }
func (h resultHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x any)        { *h = append(*h, x.(Neighbor)) }
func (h *resultHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// KNN returns the k nearest neighbours of q, closest first.
func (t *Tree) KNN(q []float64, k int) ([]Neighbor, error) {
	if len(q) != t.dim {
		return nil, fmt.Errorf("%w: query has %d coords, want %d", errDim, len(q), t.dim)
	}
	if k <= 0 || t.root < 0 {
		return nil, nil
	}
	h := make(resultHeap, 0, k+1)
	t.knn(t.root, q, k, &h)
	sort.Slice(h, func(i, j int) bool { return h[i].Dist2 < h[j].Dist2 })
	return h, nil
}

func (t *Tree) knn(ni int, q []float64, k int, h *resultHeap) {
	if ni < 0 {
		return
	}
	nd := &t.nodes[ni]
	p := &t.pts[nd.ptIdx]
	d2 := dist2(q, p.Coords)
	if len(*h) < k {
		heap.Push(h, Neighbor{Point: *p, Dist2: d2})
	} else if d2 < (*h)[0].Dist2 {
		(*h)[0] = Neighbor{Point: *p, Dist2: d2}
		heap.Fix(h, 0)
	}
	delta := q[nd.axis] - p.Coords[nd.axis]
	near, far := nd.left, nd.right
	if delta > 0 {
		near, far = far, near
	}
	t.knn(near, q, k, h)
	// Prune the far side unless the splitting plane is closer than the
	// current k-th best.
	if len(*h) < k || delta*delta < (*h)[0].Dist2 {
		t.knn(far, q, k, h)
	}
}

func dist2(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// bruteKNN is the O(n) reference used by tests and tiny point sets.
func bruteKNN(pts []Point, q []float64, k int) []Neighbor {
	out := make([]Neighbor, 0, len(pts))
	for _, p := range pts {
		out = append(out, Neighbor{Point: p, Dist2: dist2(q, p.Coords)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist2 != out[j].Dist2 {
			return out[i].Dist2 < out[j].Dist2
		}
		return out[i].Point.ID < out[j].Point.ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
