// Package stats provides the online statistical estimators that drive the
// adaptive annealing schedule: exact running moments (Welford) and
// exponentially weighted moments. The Lam–Delosme schedule expresses its
// cooling rate in terms of the acceptance ratio and the dispersion of the
// cost signal, so these estimators are the "thermometer" of the optimizer.
//
// It also provides Summary, the cross-run aggregator of the multi-run
// exploration engine (internal/runner): running moments plus min/max and
// quantiles over the observed sample.
package stats
