// Package octree implements a point octree over the unit cube: the
// spatial index the paper's N-body use case calls for (§2.3 — "arrange
// the data in coherent chunks organized into a spatial octree, not
// necessarily balanced", bucketized so "an order of a few thousand
// particles per bucket" reduces row counts by orders of magnitude),
// plus the cone query light-cone extraction needs.
package octree

import (
	"errors"
	"fmt"
	"math"
)

// Point is one particle: position in [0,1)³ plus a caller identifier.
type Point struct {
	X, Y, Z float64
	ID      int64
}

// errBounds reports a point outside the unit cube.
var errBounds = errors.New("octree: point outside unit cube")

// Tree is a bucketized point octree. Leaves hold up to BucketSize points;
// inserting into a full leaf splits it (unless MaxDepth is reached, in
// which case the bucket grows unboundedly — the tree is "not necessarily
// balanced").
type Tree struct {
	BucketSize int
	MaxDepth   int
	root       *treeNode
}

type treeNode struct {
	// Cube covered: [x0, x0+size) etc.
	x0, y0, z0 float64
	size       float64
	depth      int
	pts        []Point // leaf payload (nil for internal nodes after split)
	kids       *[8]*treeNode
}

// New creates an empty octree with the given leaf capacity.
func New(bucketSize int) *Tree {
	if bucketSize < 1 {
		bucketSize = 1
	}
	return &Tree{
		BucketSize: bucketSize,
		MaxDepth:   21,
		root:       &treeNode{size: 1},
	}
}

// Insert adds a point.
func (t *Tree) Insert(p Point) error {
	if p.X < 0 || p.X >= 1 || p.Y < 0 || p.Y >= 1 || p.Z < 0 || p.Z >= 1 {
		return fmt.Errorf("%w: (%g,%g,%g)", errBounds, p.X, p.Y, p.Z)
	}
	n := t.root
	for n.kids != nil {
		n = n.childFor(p)
	}
	n.pts = append(n.pts, p)
	if len(n.pts) > t.BucketSize && n.depth < t.MaxDepth {
		t.split(n)
	}
	return nil
}

func (n *treeNode) childFor(p Point) *treeNode {
	half := n.size / 2
	oct := 0
	if p.X >= n.x0+half {
		oct |= 1
	}
	if p.Y >= n.y0+half {
		oct |= 2
	}
	if p.Z >= n.z0+half {
		oct |= 4
	}
	return n.kids[oct]
}

func (t *Tree) split(n *treeNode) {
	half := n.size / 2
	var kids [8]*treeNode
	for oct := 0; oct < 8; oct++ {
		kids[oct] = &treeNode{
			x0:    n.x0 + float64(oct&1)*half,
			y0:    n.y0 + float64((oct>>1)&1)*half,
			z0:    n.z0 + float64((oct>>2)&1)*half,
			size:  half,
			depth: n.depth + 1,
		}
	}
	n.kids = &kids
	pts := n.pts
	n.pts = nil
	for _, p := range pts {
		c := n.childFor(p)
		c.pts = append(c.pts, p)
	}
	// Recursively split any child that is still over capacity (all
	// points may have landed in one octant).
	for _, c := range kids {
		if len(c.pts) > t.BucketSize && c.depth < t.MaxDepth {
			t.split(c)
		}
	}
}

// Buckets visits every non-empty leaf with its cube and points. The
// N-body storage layer maps each bucket to one array-valued row.
func (t *Tree) Buckets(f func(x0, y0, z0, size float64, pts []Point) bool) {
	var walk func(n *treeNode) bool
	walk = func(n *treeNode) bool {
		if n.kids != nil {
			for _, c := range n.kids {
				if !walk(c) {
					return false
				}
			}
			return true
		}
		if len(n.pts) == 0 {
			return true
		}
		return f(n.x0, n.y0, n.z0, n.size, n.pts)
	}
	walk(t.root)
}

// Cone is an apex + axis + half-angle query region — the geometric
// primitive the light-cone extraction needs ("a spatial index that can
// retrieve points from within a cone", §2.3). Points between rMin and
// rMax along the cone are returned.
type Cone struct {
	Apex      [3]float64
	Axis      [3]float64 // need not be normalized
	HalfAngle float64    // radians, in (0, π/2)
	RMin      float64
	RMax      float64
}

// QueryCone returns all points inside the cone.
func (t *Tree) QueryCone(c Cone) []Point {
	ax, ay, az := c.Axis[0], c.Axis[1], c.Axis[2]
	norm := math.Sqrt(ax*ax + ay*ay + az*az)
	if norm == 0 {
		return nil
	}
	ax, ay, az = ax/norm, ay/norm, az/norm
	cosA := math.Cos(c.HalfAngle)
	var out []Point
	var walk func(n *treeNode)
	walk = func(n *treeNode) {
		// Conservative prune: test the cube's bounding sphere against an
		// expanded cone (distance from axis test at the center).
		half := n.size / 2
		cx, cy, cz := n.x0+half, n.y0+half, n.z0+half
		dx, dy, dz := cx-c.Apex[0], cy-c.Apex[1], cz-c.Apex[2]
		dist := math.Sqrt(dx*dx + dy*dy + dz*dz)
		radius := half * math.Sqrt(3)
		if dist-radius > c.RMax || dist+radius < c.RMin {
			return
		}
		if dist > radius { // apex outside the sphere: cone angle prune
			along := dx*ax + dy*ay + dz*az
			if along < 0 && dist > radius {
				// Behind the apex entirely?
				if -along > radius {
					return
				}
			} else {
				// Angle between axis and center direction minus the
				// angular radius of the sphere must be within HalfAngle.
				cosC := along / dist
				angC := math.Acos(clamp(cosC, -1, 1))
				angR := math.Asin(clamp(radius/dist, 0, 1))
				if angC-angR > c.HalfAngle {
					return
				}
			}
		}
		if n.kids != nil {
			for _, k := range n.kids {
				walk(k)
			}
			return
		}
		for _, p := range n.pts {
			dx, dy, dz := p.X-c.Apex[0], p.Y-c.Apex[1], p.Z-c.Apex[2]
			dist := math.Sqrt(dx*dx + dy*dy + dz*dz)
			if dist < c.RMin || dist > c.RMax || dist == 0 {
				continue
			}
			if (dx*ax+dy*ay+dz*az)/dist >= cosA {
				out = append(out, p)
			}
		}
	}
	walk(t.root)
	return out
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
