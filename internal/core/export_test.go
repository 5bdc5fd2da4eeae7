package core

import "repro/internal/model"

// Counts are the explorer's shortcut counters: the moves cut at their
// chain-free bound, the no-op reorders that skipped evaluation and the
// placements the legality check refused.
type Counts struct {
	Cuts, Noops, Refusals int64
}

// ExploreCounting is Explore that also reports the explorer's shortcut
// counters. With noHook the explorer runs without its stop hook, so no
// evaluation is cut at its bound.
func ExploreCounting(app *model.App, arch *model.Arch, cfg Config, noHook bool) (*Result, Counts, error) {
	e, err := New(app, arch, cfg)
	if err != nil {
		return nil, Counts{}, err
	}
	if noHook {
		e.stop = nil
	}
	res, err := e.Run()
	return res, Counts{Cuts: e.cuts, Noops: e.noops, Refusals: e.refusals}, err
}

// ResolveEvalMode is the path m resolves to on the given instance.
func ResolveEvalMode(m EvalMode, app *model.App, arch *model.Arch) EvalMode {
	return m.resolve(app, arch)
}
