package sched

// The external test package (inceval_test.go) reuses the fork instance,
// whose contention chain has zero, one or two members depending on how
// many of its consumers a mapping places in hardware.
var (
	ForkApp = forkApp
	RefArch = refArch
)
