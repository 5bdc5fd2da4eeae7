package scenario

import (
	"sync"
	"testing"

	"repro/internal/core"
)

// TestPreparedOncePerScenario pins the process-wide instance: concurrent
// first calls build one Prepared, an alias shares its canonical entry's,
// the shared models digest like freshly instantiated ones, and what a
// caller does to its own Instantiate'd models reaches neither a later
// Instantiate nor the shared instance.
func TestPreparedOncePerScenario(t *testing.T) {
	canon, ok := Lookup("paper-small-device")
	if !ok {
		t.Fatal("paper-small-device missing from the corpus")
	}
	// A copy with an instance of its own, so that every -count round
	// races real first calls.
	s := *canon
	s.prep = &sharedInstance{}
	const callers = 8
	got := make([]*core.Prepared, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := s.Prepared()
			if err != nil {
				t.Error(err)
			}
			got[i] = p
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i] == nil || got[i] != got[0] {
			t.Fatalf("caller %d got %p, caller 0 got %p", i, got[i], got[0])
		}
	}

	alias, ok := Lookup("fig2-small")
	if !ok || alias != canon {
		t.Fatalf("alias fig2-small resolves to %p, want %p", alias, canon)
	}
	p, err := canon.Prepared()
	if err != nil {
		t.Fatal(err)
	}
	if pa, err := alias.Prepared(); err != nil || pa != p {
		t.Fatalf("alias Prepared = %p, %v; canonical %p", pa, err, p)
	}

	app, arch, err := canon.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	wantApp, wantArch := app.Digest(), arch.Digest()
	if a, r := p.Digests(); a != wantApp || r != wantArch {
		t.Fatalf("shared digests %s/%s, fresh Instantiate %s/%s", a, r, wantApp, wantArch)
	}
	if p.App() == app || p.Arch() == arch {
		t.Fatal("Instantiate returned the shared models")
	}

	app.Name = "mutated"
	app.Tasks[0].SW++
	app.Flows = app.Flows[:0]
	arch.Processors[0].SpeedFactor++
	again, archAgain, err := canon.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	if again.Digest() != wantApp || archAgain.Digest() != wantArch {
		t.Fatal("mutating one Instantiate's models changed the next Instantiate")
	}
	if p.App().Digest() != wantApp || p.Arch().Digest() != wantArch {
		t.Fatal("mutating one Instantiate's models changed the shared instance")
	}
	if q, err := canon.Prepared(); err != nil || q != p {
		t.Fatalf("Prepared after the mutation = %p, %v; want %p", q, err, p)
	}
}
