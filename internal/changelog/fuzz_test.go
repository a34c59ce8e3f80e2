package changelog

import (
	"strings"
	"testing"

	"aacc/internal/core"
	"aacc/internal/gen"
)

// FuzzParse guards the change-log boundary: the text arrives from outside the
// process (aacc -changes FILE) and every event it yields funnels into the one
// mutation entry point. Parse must never panic, and a log it accepts,
// replayed onto a small engine, must end in an error or a converged analysis.
// The seeds are the logs of the package's own tests, so plain `go test` runs
// them.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		sampleLog,
		"@2\ndeledge 0 1\ndeledge 4 5\n",
		"@1\nattach ghost 3 1\n",
		"@1\naddvertex x\naddvertex x\n",
		"@1\nattach 2 7 3\n",
		"@1\naddvertex a\ndelvertex a\n",
		"setweight 0 1 2147483647\naddedge 0 15 2147483647\n",
		"@x\n", "@-1\n", "frobnicate 1 2\n", "addedge 1\n", "addedge alice 2 1\n",
		"deledge 1 bob\n", "setweight 1 2\n", "addedge 1 2 0\n", "addvertex\n", "delvertex\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		log, err := Parse(strings.NewReader(text))
		if err != nil {
			return
		}
		events := 0
		for _, b := range log.Batches {
			events += len(b.Events)
		}
		if events > 256 {
			t.Skip("log too large to replay per fuzz iteration")
		}
		e, err := core.New(gen.Path(16), core.Options{P: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		rep := NewReplayer(log, nil)
		rep.Eager = len(text)%2 == 1
		// Apply each batch as soon as it is next, not at its recorded step: a
		// hostile "@2000000000" marker must not cost two billion RC steps.
		for !rep.Done() {
			if err := rep.ApplyDue(e, rep.NextStep()); err != nil {
				return
			}
		}
		if _, err := e.Run(); err != nil {
			return
		}
		if !e.Converged() {
			t.Fatal("replay returned no error but the analysis did not converge")
		}
	})
}
