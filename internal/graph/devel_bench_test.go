package graph

import (
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

// This file compares Flush's topological sweep with the worklist drain it
// replaced, devel-bench style (see sched/devel_bench_test.go): the drain
// survives here as a test-only copy, TestDevelDrainMatchesSweep holds the
// two to equal start times, and BenchmarkDevelFlush runs both on the same
// kinds of edit stream.
//
//	go test -run '^$' -bench DevelFlush -cpu 1,2 ./internal/graph

// drainEvaluator is an Evaluator whose Flush is the retired drain: a bit
// set keyed by topological position holds the worklist, and only the
// successors of nodes whose values changed are visited. Edits go through
// the embedded Evaluator, whose marks seed the worklist.
type drainEvaluator struct {
	*Evaluator
	work Bits
}

func newDrainEvaluator(g *DAG, dur []int64) (*drainEvaluator, error) {
	e, err := NewEvaluator(g, dur)
	if err != nil {
		return nil, err
	}
	return &drainEvaluator{Evaluator: e, work: NewBits(g.N())}, nil
}

// Flush drains the worklist front to back. Every node discovered during
// the drain is a successor of the node being processed, so its bit is
// strictly ahead of the scan cursor: either a higher bit of the word in
// hand (OR'd into the working copy) or a later word.
func (e *drainEvaluator) Flush() int64 {
	if len(e.roots) > 0 {
		minPos := e.g.N()
		for _, v := range e.roots {
			p := e.dt.ord[v]
			e.work.Set(p)
			if p < minPos {
				minPos = p
			}
		}
		e.roots = e.roots[:0]
		pd := e.work
		for wi := minPos >> 6; wi < len(pd); wi++ {
			w := pd[wi]
			if w == 0 {
				continue
			}
			pd[wi] = 0
			for w != 0 {
				v := e.dt.pos[wi<<6+bits.TrailingZeros64(w)]
				w &= w - 1
				e.dirty.Clear(v)
				ns := e.recomputeStart(v)
				nf := ns + e.dur[v]
				if ns == e.start[v] && nf == e.fin[v] {
					continue
				}
				e.start[v] = ns
				e.fin[v] = nf
				if nf >= e.maxFin {
					e.maxFin, e.maxNode = nf, int32(v)
				} else if int32(v) == e.maxNode {
					e.rescan = true
				}
				for _, h := range e.g.succ[v] {
					s := int(h.to)
					if e.dirty.Get(s) {
						continue
					}
					e.dirty.Set(s)
					p := e.dt.ord[s]
					if p>>6 == wi {
						w |= 1 << (uint(p) & 63)
					} else {
						pd.Set(p)
					}
				}
			}
		}
		if e.rescan {
			e.rescanMax()
		}
	}
	return e.maxFin
}

// flusher is the surface both variants share.
type flusher interface {
	AddEdge(u, v int, w int64) error
	RemoveEdge(u, v int) bool
	SetDur(v int, d int64)
	Flush() int64
	Start(v int) int64
}

var flushVariants = []struct {
	name string
	make func(g *DAG, dur []int64) (flusher, error)
}{
	{"drain", func(g *DAG, dur []int64) (flusher, error) { return newDrainEvaluator(g, dur) }},
	{"sweep", func(g *DAG, dur []int64) (flusher, error) { return NewEvaluator(g, dur) }},
}

// chainGraph has the shape of an explorer's search graph: task nodes whose
// precedence edges each run through a communication node, plus one total
// order chain per processor over the tasks it holds. Every chain keeps its
// tasks in ascending order, and every precedence edge runs from a lower to
// a higher task, so the graph stays acyclic under any move.
type chainGraph struct {
	g      *DAG
	dur    []int64
	chains [][]int
	on     []int   // on[t] = the chain holding task t
	base   []int64 // base[t] = task t's duration on a speed-1 processor
}

func newChainGraph(seed int64, nTasks, nChains int) *chainGraph {
	r := rand.New(rand.NewSource(seed))
	var flows [][2]int
	for v := 1; v < nTasks; v++ {
		lo := max(0, v-16)
		for k := 0; k < 2; k++ {
			flows = append(flows, [2]int{lo + r.Intn(v-lo), v})
		}
	}
	n := nTasks + len(flows)
	cg := &chainGraph{
		g:      New(n),
		dur:    make([]int64, n),
		chains: make([][]int, nChains),
		on:     make([]int, nTasks),
		base:   make([]int64, nTasks),
	}
	for k, f := range flows {
		c := nTasks + k
		cg.g.AddEdge(f[0], c, 0) //nolint:errcheck
		cg.g.AddEdge(c, f[1], 0) //nolint:errcheck
		if r.Intn(2) == 0 {
			cg.dur[c] = r.Int63n(20)
		}
	}
	for t := 0; t < nTasks; t++ {
		c := r.Intn(nChains)
		cg.base[t] = 1 + r.Int63n(100)
		cg.on[t] = c
		cg.dur[t] = cg.base[t] * int64(c+1)
		cg.chains[c] = append(cg.chains[c], t)
	}
	for _, ch := range cg.chains {
		for i := 1; i < len(ch); i++ {
			cg.g.AddEdge(ch[i-1], ch[i], 0) //nolint:errcheck
		}
	}
	return cg
}

// randomMove draws a task and a chain other than the one holding it.
func (cg *chainGraph) randomMove(r *rand.Rand) (x, to int) {
	x = r.Intn(len(cg.on))
	return x, (cg.on[x] + 1 + r.Intn(len(cg.chains)-1)) % len(cg.chains)
}

// moveTo moves task x to chain to, as the explorer's reassign move does:
// x leaves its chain, whose neighbours link up, joins chain to at its
// place in ascending order and takes that processor's duration (chain c
// runs at 1/(c+1) speed).
func (cg *chainGraph) moveTo(e flusher, x, to int) {
	ch := cg.chains[cg.on[x]]
	i := sort.SearchInts(ch, x)
	if i > 0 {
		e.RemoveEdge(ch[i-1], x)
	}
	if i+1 < len(ch) {
		e.RemoveEdge(x, ch[i+1])
	}
	if i > 0 && i+1 < len(ch) {
		mustAdd(e, ch[i-1], ch[i+1])
	}
	cg.chains[cg.on[x]] = append(ch[:i], ch[i+1:]...)
	ch = cg.chains[to]
	j := sort.SearchInts(ch, x)
	if j > 0 && j < len(ch) {
		e.RemoveEdge(ch[j-1], ch[j])
	}
	if j > 0 {
		mustAdd(e, ch[j-1], x)
	}
	if j < len(ch) {
		mustAdd(e, x, ch[j])
	}
	ch = append(ch, 0)
	copy(ch[j+1:], ch[j:])
	ch[j] = x
	cg.chains[to] = ch
	cg.on[x] = to
	e.SetDur(x, cg.base[x]*int64(to+1))
}

func mustAdd(e flusher, u, v int) {
	if err := e.AddEdge(u, v, 0); err != nil {
		panic(err)
	}
}

// randomDAG2000 is BenchmarkEvalIncremental's graph: 2000 nodes, up to
// four forward edges each.
func randomDAG2000() (*DAG, []int64) {
	const n = 2000
	r := rand.New(rand.NewSource(7))
	g := New(n)
	dur := make([]int64, n)
	for i := range dur {
		dur[i] = int64(r.Intn(1000))
	}
	for u := 0; u < n; u++ {
		for k := 0; k < 4; k++ {
			if v := u + 1 + r.Intn(n-u); v < n {
				g.AddEdge(u, v, int64(r.Intn(100))) //nolint:errcheck
			}
		}
	}
	return g, dur
}

// TestDevelDrainMatchesSweep replays identical random edit streams through
// the drain and the sweep and requires equal start times and makespans
// after every flush: chain moves and duration changes on chain graphs, and
// edge insertions, removals and duration changes on random DAGs.
func TestDevelDrainMatchesSweep(t *testing.T) {
	same := func(t *testing.T, step int, a, b flusher, n int) {
		t.Helper()
		if ma, mb := a.Flush(), b.Flush(); ma != mb {
			t.Fatalf("step %d: drain makespan %d, sweep %d", step, ma, mb)
		}
		for v := 0; v < n; v++ {
			if a.Start(v) != b.Start(v) {
				t.Fatalf("step %d: start[%d] drain %d, sweep %d", step, v, a.Start(v), b.Start(v))
			}
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		cgA, cgB := newChainGraph(seed, 160, 4), newChainGraph(seed, 160, 4)
		a, err := newDrainEvaluator(cgA.g, cgA.dur)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewEvaluator(cgB.g, cgB.dur)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed))
		for step := 0; step < 400; step++ {
			x, to := cgA.randomMove(r)
			cgA.moveTo(a, x, to)
			cgB.moveTo(b, x, to)
			if step%4 == 3 {
				v, d := r.Intn(len(cgA.dur)), r.Int63n(100)
				a.SetDur(v, d)
				b.SetDur(v, d)
			}
			same(t, step, a, b, len(cgA.dur))
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		const n = 60
		ga, gb := randomDAG(r, n, 0.05), New(n)
		for _, ed := range ga.Edges() {
			gb.AddEdge(ed.U, ed.V, ed.W) //nolint:errcheck
		}
		dur := make([]int64, n)
		for i := range dur {
			dur[i] = r.Int63n(60)
		}
		a, err := newDrainEvaluator(ga, append([]int64(nil), dur...))
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewEvaluator(gb, append([]int64(nil), dur...))
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 400; step++ {
			switch u, v := r.Intn(n), r.Intn(n); r.Intn(3) {
			case 0:
				if w := r.Int63n(20); u != v && (a.AddEdge(u, v, w) == nil) != (b.AddEdge(u, v, w) == nil) {
					t.Fatalf("step %d: the graphs disagree on edge (%d,%d)", step, u, v)
				}
			case 1:
				a.RemoveEdge(u, v)
				b.RemoveEdge(u, v)
			case 2:
				d := r.Int63n(60)
				a.SetDur(v, d)
				b.SetDur(v, d)
			}
			same(t, step, a, b, n)
		}
	}
}

// BenchmarkDevelFlush times one edit plus Flush for the drain and the
// sweep on two graphs:
//
//   - chains: a chainGraph over 160 tasks and 4 processor chains, each edit
//     one task moved to another chain, every second one moving the last
//     task back as a rejected move is reverted, so the graph stays near
//     its start whatever b.N (the explorer's regime: the order chains
//     carry a change downstream, so most of the order's suffix changes);
//   - random2000: BenchmarkEvalIncremental's random DAG, each edit one
//     SetDur (a small, scattered cone: the drain's regime).
func BenchmarkDevelFlush(b *testing.B) {
	for _, fv := range flushVariants {
		b.Run("chains/"+fv.name, func(b *testing.B) {
			cg := newChainGraph(1, 160, 4)
			e, err := fv.make(cg.g, cg.dur)
			if err != nil {
				b.Fatal(err)
			}
			r := rand.New(rand.NewSource(2))
			var x, back int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					var to int
					x, to = cg.randomMove(r)
					back = cg.on[x]
					cg.moveTo(e, x, to)
				} else {
					cg.moveTo(e, x, back)
				}
				e.Flush()
			}
		})
	}
	for _, fv := range flushVariants {
		b.Run("random2000/"+fv.name, func(b *testing.B) {
			g, dur := randomDAG2000()
			e, err := fv.make(g, dur)
			if err != nil {
				b.Fatal(err)
			}
			r := rand.New(rand.NewSource(8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.SetDur(r.Intn(2000), int64(r.Intn(1000)))
				e.Flush()
			}
		})
	}
}
