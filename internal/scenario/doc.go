// Package scenario is the corpus of named, versioned benchmark scenarios:
// each is a deterministic (application, architecture, objective
// configuration, strategy budget) quadruple identified by a name and a
// frozen seed. The corpus spans six families — the paper's published
// Section 5 instances ("paper"), series-parallel pipelines ("pipeline"),
// fork-join trees ("forkjoin"), layered random DAGs ("layered"),
// SDF-expanded multirate graphs ("sdf"), and reconfiguration-overhead
// regimes ("reconfig") — at sizes tiny through XL.
//
// Determinism is the corpus's contract: Scenario.App and Scenario.Arch
// derive every random choice from rngs seeded by the scenario's frozen
// seed (through internal/apps generators and the
// internal/scenario/archgen architecture generator), so regenerating a
// scenario always yields bit-identical models. The golden digest test
// (golden_test.go, testdata/golden.txt) pins every scenario's app and
// arch fingerprints; an intentional corpus change regenerates the file
// with `go test ./internal/scenario -run Golden -update`.
//
// Instantiate generates fresh models that the caller owns. Prepared
// returns the scenario's one process-wide core.Prepared instead, built on
// the first call and shared read-only by every later caller: the job
// server resolves every scenario job on it.
//
// RunMatrix (bench.go) is the benchmark driver behind cmd/dsebench: it
// runs a strategy × scenario matrix on the parallel multi-run engine
// under each scenario's budget and emits per-cell report.BenchRow records
// (best cost, front size, evaluations/s, wall time) for the JSON/CSV
// report pipeline and its baseline regression gate.
package scenario
