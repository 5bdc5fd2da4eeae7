// Package graph provides the directed-graph substrate of the design-space
// explorer: dynamic edge insertion and removal, reachability queries, a
// transitive closure with O(1) cycle pre-checks, dynamic topological order
// maintenance, and longest-path (makespan) evaluation over node- and
// edge-weighted DAGs, also with the positive-weight flow edges served one
// at a time over a shared channel (Evaluator.ContendedMakespan).
//
// The explorer mutates a "search graph" thousands of times per second
// (sequentialization edges come and go on every annealing move), so every
// operation here is designed for cheap incremental update with a
// full-recompute fallback used by the tests as ground truth.
package graph
