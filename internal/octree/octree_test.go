package octree

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func randPoints(rng *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64(), ID: int64(i)}
	}
	return pts
}

func buildTree(t *testing.T, pts []Point, bucket int) *Tree {
	t.Helper()
	tr := New(bucket)
	for _, p := range pts {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// stored returns every point the tree holds, bucket by bucket.
func stored(tr *Tree) []Point {
	var out []Point
	tr.Buckets(func(_, _, _, _ float64, pts []Point) bool {
		out = append(out, pts...)
		return true
	})
	return out
}

func TestInsertBounds(t *testing.T) {
	tr := New(4)
	if err := tr.Insert(Point{X: 1.0, Y: 0, Z: 0}); !errors.Is(err, errBounds) {
		t.Errorf("x=1 must fail (half-open cube): %v", err)
	}
	if err := tr.Insert(Point{X: -0.1, Y: 0.5, Z: 0.5}); !errors.Is(err, errBounds) {
		t.Errorf("negative must fail: %v", err)
	}
	if err := tr.Insert(Point{X: 0, Y: 0, Z: 0}); err != nil {
		t.Errorf("origin must insert: %v", err)
	}
	if got := stored(tr); len(got) != 1 {
		t.Errorf("tree holds %d points, want 1", len(got))
	}
}

func TestBucketsPartitionPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randPoints(rng, 2000)
	tr := buildTree(t, pts, 32)
	seen := map[int64]bool{}
	buckets := 0
	tr.Buckets(func(x0, y0, z0, size float64, bpts []Point) bool {
		buckets++
		if len(bpts) == 0 {
			t.Error("empty bucket visited")
		}
		for _, p := range bpts {
			if seen[p.ID] {
				t.Fatalf("point %d in two buckets", p.ID)
			}
			seen[p.ID] = true
			// The point must lie in the bucket's cube.
			if p.X < x0 || p.X >= x0+size || p.Y < y0 || p.Y >= y0+size || p.Z < z0 || p.Z >= z0+size {
				t.Fatalf("point %d outside its bucket", p.ID)
			}
		}
		return true
	})
	if len(seen) != 2000 {
		t.Errorf("buckets covered %d points", len(seen))
	}
	if buckets < 2000/32 {
		t.Errorf("only %d buckets for 2000 points at bucket size 32", buckets)
	}
	// Early stop works.
	n := 0
	tr.Buckets(func(_, _, _, _ float64, _ []Point) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestSplitOnOverflow(t *testing.T) {
	tr := New(4)
	// 10 points in the same octant force recursive splits.
	for i := 0; i < 10; i++ {
		if err := tr.Insert(Point{X: 0.01 + float64(i)*0.001, Y: 0.01, Z: 0.01, ID: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// All points still stored, and no bucket over capacity.
	if got := stored(tr); len(got) != 10 {
		t.Errorf("tree holds %d of 10 points", len(got))
	}
	tr.Buckets(func(_, _, _, size float64, pts []Point) bool {
		if len(pts) > tr.BucketSize {
			t.Errorf("bucket of side %g holds %d points, capacity %d", size, len(pts), tr.BucketSize)
		}
		return true
	})
}

func TestQueryConeMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := randPoints(rng, 3000)
	tr := buildTree(t, pts, 16)
	for trial := 0; trial < 20; trial++ {
		cone := Cone{
			Apex:      [3]float64{rng.Float64() * 0.3, rng.Float64() * 0.3, rng.Float64() * 0.3},
			Axis:      [3]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
			HalfAngle: 0.15 + 0.4*rng.Float64(),
			RMin:      0.05,
			RMax:      0.9,
		}
		norm := math.Sqrt(cone.Axis[0]*cone.Axis[0] + cone.Axis[1]*cone.Axis[1] + cone.Axis[2]*cone.Axis[2])
		if norm == 0 {
			continue
		}
		got := tr.QueryCone(cone)
		gotIDs := map[int64]bool{}
		for _, p := range got {
			gotIDs[p.ID] = true
		}
		cosA := math.Cos(cone.HalfAngle)
		want := 0
		for _, p := range pts {
			dx, dy, dz := p.X-cone.Apex[0], p.Y-cone.Apex[1], p.Z-cone.Apex[2]
			dist := math.Sqrt(dx*dx + dy*dy + dz*dz)
			if dist < cone.RMin || dist > cone.RMax || dist == 0 {
				continue
			}
			if (dx*cone.Axis[0]+dy*cone.Axis[1]+dz*cone.Axis[2])/(dist*norm) >= cosA {
				want++
				if !gotIDs[p.ID] {
					t.Fatalf("trial %d: point %d missing from cone", trial, p.ID)
				}
			}
		}
		if len(got) != want {
			t.Fatalf("trial %d: cone found %d, want %d", trial, len(got), want)
		}
	}
	// Degenerate axis returns nothing.
	if out := tr.QueryCone(Cone{HalfAngle: 0.5, RMax: 1}); out != nil {
		t.Error("zero axis must return nothing")
	}
}
