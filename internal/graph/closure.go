package graph

// Closure is the transitive closure of a DAG as one bit-set row per node:
// row u has bit v set when u reaches v through one or more edges. It is
// built once and only read.
//
// The explorer uses the closure for the O(1) legality pre-check the paper
// describes ("detectable in O(1) operations on the associated transitive
// closure matrix"): inserting edge (u,v) creates a cycle exactly when v
// already reaches u.
type Closure struct {
	reach []Bits
}

// NewClosure builds the closure of g in reverse topological order. It
// returns ErrCycle if g is cyclic.
func NewClosure(g *DAG) (*Closure, error) {
	order, err := Topo(g)
	if err != nil {
		return nil, err
	}
	c := &Closure{reach: make([]Bits, g.N())}
	for i := range c.reach {
		c.reach[i] = NewBits(g.N())
	}
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		g.EachSucc(u, func(v int, _ int64) {
			c.reach[u].Set(v)
			c.reach[u].Or(c.reach[v])
		})
	}
	return c, nil
}

// Reaches reports whether u reaches v (u ≠ v).
func (c *Closure) Reaches(u, v int) bool { return c.reach[u].Get(v) }
