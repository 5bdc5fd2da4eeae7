package core

import "repro/internal/model"

// ExploreCounting is Explore that also reports the explorer's shortcut
// counters: the moves cut at their chain-free bound and the no-op
// reorders that skipped evaluation.
func ExploreCounting(app *model.App, arch *model.Arch, cfg Config) (res *Result, cuts, noops int64, err error) {
	e, err := New(app, arch, cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	res, err = e.Run()
	return res, e.cuts, e.noops, err
}
