// Package runner is the parallel multi-run exploration engine: it executes
// N independent exploration runs (any strategy of the search engine)
// across a pool of workers, one deterministic seed stream per run, and
// aggregates their results as they stream in.
//
// The paper's headline results are averages over ~100 independent annealing
// runs per configuration — an embarrassingly parallel outer loop. The
// runner parallelizes exactly that loop while keeping it reproducible:
//
//   - run i always uses seed BaseSeed+i, so each run's outcome is a pure
//     function of its seed regardless of the worker count;
//   - completed runs pass through an in-order merger (a reorder buffer keyed
//     by run index) before touching the aggregate, so the streamed
//     statistics, the best-solution tie-breaks and the Pareto archive are
//     byte-identical between Workers=1 and Workers=NumCPU.
//
// Cancellation is cooperative: each run checks the context between driver
// steps (64 annealing iterations, or one GA generation), and the batch
// returns the aggregate of every run that completed.
package runner
