package pareto

import (
	"math/rand"
	"testing"

	"repro/internal/model"
)

func TestDominatesVec(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1, 2}, []float64{2, 3}, true},
		{[]float64{1, 2}, []float64{1, 2}, false}, // equal: no strict gain
		{[]float64{1, 3}, []float64{2, 2}, false}, // incomparable
		{[]float64{0, 0, 0}, []float64{0, 0, 1}, true},
		{[]float64{2, 3}, []float64{1, 2}, false},
	}
	for i, c := range cases {
		if got := DominatesVec(c.a, c.b); got != c.want {
			t.Fatalf("case %d: DominatesVec(%v, %v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

// randomPoints draws n points of the given dimension on a small integer
// grid (so duplicates and dominance chains actually occur).
func randomPoints(rng *rand.Rand, n, dims, grid int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		v := make([]float64, dims)
		for d := range v {
			v[d] = float64(rng.Intn(grid))
		}
		pts[i] = v
	}
	return pts
}

// refFront is the obvious O(n²) reference: a point survives iff no other
// point dominates it, with exact duplicates collapsed.
func refFront(pts [][]float64) [][]float64 {
	var out [][]float64
	for i, p := range pts {
		dead := false
		for j, q := range pts {
			if DominatesVec(q, p) || (j < i && equalVec(q, p)) {
				dead = true
				break
			}
		}
		if !dead {
			out = append(out, p)
		}
	}
	return out
}

// TestNArchiveProperties drives the archive with random point streams in
// dimensions 2–4 and checks the three contract properties: the archive is
// an antichain, it equals the reference front (order-independence: the
// final point set must not depend on insertion order), and duplicates
// collapse.
func TestNArchiveProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		dims := 2 + rng.Intn(3)
		pts := randomPoints(rng, 5+rng.Intn(40), dims, 6)

		build := func(order []int) *NArchive {
			a := NewNArchive(dims)
			for _, i := range order {
				a.Add(pts[i], i)
			}
			return a
		}
		natural := make([]int, len(pts))
		for i := range natural {
			natural[i] = i
		}
		a := build(natural)

		// Antichain: no member dominates (or equals) another.
		got := a.Points()
		for i := range got {
			for j := range got {
				if i == j {
					continue
				}
				if DominatesVec(got[i].V, got[j].V) {
					t.Fatalf("trial %d: archive member %v dominates member %v", trial, got[i].V, got[j].V)
				}
				if equalVec(got[i].V, got[j].V) {
					t.Fatalf("trial %d: duplicate members %v", trial, got[i].V)
				}
			}
		}

		// Equality with the reference front (as a set of vectors).
		want := refFront(pts)
		if len(got) != len(want) {
			t.Fatalf("trial %d: archive has %d points, reference %d", trial, len(got), len(want))
		}
		for _, w := range want {
			found := false
			for _, g := range got {
				if equalVec(g.V, w) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("trial %d: reference point %v missing from archive", trial, w)
			}
		}

		// Order-independence: shuffled insertion yields the same point set.
		shuffled := append([]int(nil), natural...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		b := build(shuffled)
		bp := b.Points()
		if len(bp) != len(got) {
			t.Fatalf("trial %d: insertion order changed the front size: %d vs %d", trial, len(bp), len(got))
		}
		for i := range got {
			if !equalVec(got[i].V, bp[i].V) {
				t.Fatalf("trial %d: insertion order changed the front: %v vs %v", trial, got[i].V, bp[i].V)
			}
		}

		// Duplicate collapsing: re-offering every point changes nothing.
		before := a.Len()
		for i, p := range pts {
			if a.Add(p, 1000+i) {
				t.Fatalf("trial %d: re-offered point %v entered the archive", trial, p)
			}
		}
		if a.Len() != before {
			t.Fatalf("trial %d: re-offering grew the archive %d → %d", trial, before, a.Len())
		}
	}
}

// TestNArchiveMergeEqualsWhole: merging per-shard archives equals the
// archive of all points — the property the multi-run engine relies on when
// folding per-run fronts into the cross-run front.
func TestNArchiveMergeEqualsWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		dims := 2 + rng.Intn(2)
		pts := randomPoints(rng, 30, dims, 5)
		whole := NewNArchive(dims)
		for i, p := range pts {
			whole.Add(p, i)
		}
		cut := rng.Intn(len(pts))
		left, right := NewNArchive(dims), NewNArchive(dims)
		for i, p := range pts[:cut] {
			left.Add(p, i)
		}
		for i, p := range pts[cut:] {
			right.Add(p, cut+i)
		}
		left.Merge(right)
		lp, wp := left.Points(), whole.Points()
		if len(lp) != len(wp) {
			t.Fatalf("trial %d: merged %d points, whole %d", trial, len(lp), len(wp))
		}
		for i := range lp {
			if !equalVec(lp[i].V, wp[i].V) {
				t.Fatalf("trial %d: point %d: merged %v vs whole %v", trial, i, lp[i].V, wp[i].V)
			}
		}
	}
}

func equalVec(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestNArchiveCoversIsAddRefusal pins the one definition of "covered": on
// random archives, Covers(v) holds exactly when Add(v) would refuse v —
// checked on a clone, so the probe never changes the archive — and
// exactly when some point dominates or equals v.
func TestNArchiveCoversIsAddRefusal(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	covered, open := 0, 0
	for trial := 0; trial < 300; trial++ {
		dims := 1 + rng.Intn(4)
		a := NewNArchive(dims)
		for _, p := range randomPoints(rng, rng.Intn(30), dims, 5) {
			a.Add(p, 0)
		}
		for _, v := range randomPoints(rng, 20, dims, 6) {
			c := a.Covers(v)
			if added := a.Clone().Add(v, 1); c == added {
				t.Fatalf("archive %+v: Covers(%v) = %v but Add returned %v", a.Points(), v, c, added)
			}
			ref := false
			for _, q := range a.Points() {
				ref = ref || DominatesVec(q.V, v) || equalVec(q.V, v)
			}
			if c != ref {
				t.Fatalf("archive %+v: Covers(%v) = %v, dominated-or-equal = %v", a.Points(), v, c, ref)
			}
			if c {
				covered++
			} else {
				open++
			}
		}
	}
	if covered == 0 || open == 0 {
		t.Fatalf("probes never exercised both outcomes: %d covered, %d open", covered, open)
	}
}

// TestNArchiveEviction: a dominating point evicts everything it dominates.
func TestNArchiveEviction(t *testing.T) {
	a := NewNArchive(3)
	a.Add([]float64{3, 3, 3}, 0)
	a.Add([]float64{2, 4, 3}, 1)
	a.Add([]float64{4, 2, 3}, 2)
	if a.Len() != 3 {
		t.Fatalf("len = %d, want 3", a.Len())
	}
	if !a.Add([]float64{1, 1, 1}, 3) {
		t.Fatal("dominating point rejected")
	}
	pts := a.Points()
	if len(pts) != 1 || pts[0].ID != 3 {
		t.Fatalf("eviction failed: %+v", pts)
	}
}

// TestFrontKeepsZeroTimePoints is the regression for the sentinel rewrite:
// dominance filtering has no "no best time yet" placeholder, so a
// zero-valued coordinate must never be conflated with it.
func TestFrontKeepsZeroTimePoints(t *testing.T) {
	pts := []model.Impl{
		{CLBs: 10, Time: 0}, // zero time: dominates everything with >= 10 CLBs
		{CLBs: 5, Time: 7},
		{CLBs: 20, Time: 0}, // dominated by (10, 0)
	}
	f := Front(pts)
	if len(f) != 2 {
		t.Fatalf("front = %+v, want [(5,7) (10,0)]", f)
	}
	if f[0] != pts[1] || f[1] != pts[0] {
		t.Fatalf("front order wrong: %+v", f)
	}
	// A lone zero-area, zero-time point survives too.
	f = Front([]model.Impl{{CLBs: 0, Time: 0}})
	if len(f) != 1 {
		t.Fatalf("zero point dropped: %+v", f)
	}
}

// TestNArchiveZeroValue: the zero archive (dims 0) must reject points
// rather than corrupt state.
func TestNArchivePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	a := NewNArchive(2)
	a.Add([]float64{1, 2, 3}, 0)
}
