package pareto

import "sort"

// DominatesVec reports whether point a dominates point b in an
// all-minimized objective space: a is no worse in every coordinate and
// strictly better in at least one. The slices must have equal length.
func DominatesVec(a, b []float64) bool {
	better := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			better = true
		}
	}
	return better
}

// NPoint is one entry of an N-dimensional archive: an objective vector plus
// the identifier of whatever produced it (a run index, an iteration, ...).
type NPoint struct {
	V  []float64
	ID int
}

// NArchive maintains the non-dominated set of N-dimensional points observed
// so far. It generalizes the 2-D area/time Archive: the in-run Pareto
// collection of the explorer and the cross-run front merging of the
// multi-run engine both archive full objective vectors through it. Create
// archives with NewNArchive; the zero value rejects every point. NArchive
// is not safe for concurrent use — the runner serializes insertions through
// its in-order result merger, exactly as it does for the 2-D Archive.
type NArchive struct {
	dims int
	pts  []NPoint
}

// NewNArchive creates an empty archive over a dims-dimensional objective
// space (dims >= 1).
func NewNArchive(dims int) *NArchive {
	if dims < 1 {
		panic("pareto: NArchive needs at least one dimension")
	}
	return &NArchive{dims: dims}
}

// Dims returns the dimensionality of the archive.
func (a *NArchive) Dims() int { return a.dims }

// Covers reports whether some archived point is no worse than v in every
// coordinate — one that dominates or equals v. Add refuses exactly the
// covered points, so a caller holding a lower bound on a point's
// coordinates can learn that the point's offer would be refused without
// computing it.
func (a *NArchive) Covers(v []float64) bool {
	for _, q := range a.pts {
		if leqVec(q.V, v) {
			return true
		}
	}
	return false
}

// Add offers a point to the archive, copying v. It returns true when the
// point enters the frontier (evicting any entries it dominates) and false
// when the archive covers it — ties keep the incumbent, so feeding points
// in a deterministic order yields a deterministic archive.
func (a *NArchive) Add(v []float64, id int) bool {
	if len(v) != a.dims {
		panic("pareto: NArchive.Add dimension mismatch")
	}
	if a.Covers(v) {
		return false
	}
	keep := a.pts[:0]
	for _, q := range a.pts {
		if !DominatesVec(v, q.V) {
			keep = append(keep, q)
		}
	}
	a.pts = append(keep, NPoint{V: append([]float64(nil), v...), ID: id})
	return true
}

// Merge folds every point of other into a, in other's insertion order.
// Merging archives built from disjoint batches yields exactly the archive
// of the union of points: dominance is transitive, so no point evicted in a
// shard could have survived the whole.
func (a *NArchive) Merge(other *NArchive) {
	for _, q := range other.pts {
		a.Add(q.V, q.ID)
	}
}

// Len returns the number of frontier points.
func (a *NArchive) Len() int { return len(a.pts) }

// Clone returns a deep copy of the archive (fresh point and coordinate
// storage) — the isolation the memoized result cache needs when the same
// archived outcome is handed to several consumers.
func (a *NArchive) Clone() *NArchive {
	c := &NArchive{dims: a.dims, pts: make([]NPoint, len(a.pts))}
	for i, p := range a.pts {
		c.pts[i] = NPoint{V: append([]float64(nil), p.V...), ID: p.ID}
	}
	return c
}

// Points returns the frontier sorted lexicographically by coordinates. The
// returned slice is freshly allocated but shares the coordinate storage.
func (a *NArchive) Points() []NPoint {
	out := append([]NPoint(nil), a.pts...)
	sort.Slice(out, func(i, j int) bool { return lessVec(out[i].V, out[j].V) })
	return out
}

// leqVec reports whether a is no greater than b in every coordinate.
func leqVec(a, b []float64) bool {
	for i := range a {
		if !(a[i] <= b[i]) {
			return false
		}
	}
	return true
}

func lessVec(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
