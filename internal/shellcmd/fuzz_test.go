package shellcmd

import (
	"context"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/query"
)

// FuzzExec feeds any line to the wire command grammar: Engine.Exec on a
// MapStore of two tiny layers under a one-second deadline, then the same
// line again as a batch sub-command. Whatever the line, the engine must
// answer with output, an error or a partial — never a panic. Lines naming
// a verb that writes files or builds layers (gen, load, save, partition)
// are skipped. The corpus is seeded with every verb of Help.
func FuzzExec(f *testing.F) {
	a := query.NewLayer(data.MustLoad("LANDC", 0.002))
	b := query.NewLayer(data.MustLoad("LANDO", 0.002))
	const window = "POLYGON((100 100, 300 100, 300 250, 100 250, 100 100))"
	seeds := []string{
		"gen x LANDC 0.002", "load x x.snap", "save a x", "layers", "stats a",
		"join a b", "join a b sw", "pjoin a b 2", "overlay a b", "within a b 3 hw",
		"select a " + window, "knn a " + window + " 3", "knn a " + window + " 9223372036854775807",
		"timeout 1ms", "budget 5", "pipeline on 3", "intervals off",
		"batch timeout 1h; join a b; layers", "partition a 2 tiles",
		"shardselect a " + window, "shardjoin a b -Inf -Inf +Inf +Inf",
		"shardwithin a b 2 0 0 300 200 hw", "live t", "insert t " + window,
		"delete t 0", "compact t", "help", "quit",
		// A query vertex more grid cells away than an int holds.
		"select a POLYGON((0 0,0 0,70000000000000000000 0))",
	}
	for _, line := range strings.Split(Help, "\n") {
		if !strings.HasPrefix(line, "  ") {
			continue
		}
		if verb := Verb(line); !hasSeed(seeds, verb) {
			f.Fatalf("no seed for the %q verb of Help", verb)
		}
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		for _, sub := range strings.Split(line, ";") {
			switch Verb(sub) {
			case "gen", "load", "save", "partition":
				t.Skip("a verb that writes files or builds layers")
			}
		}
		for _, l := range []string{line, "batch " + line} {
			e := &Engine{Store: MapStore{"a": a, "b": b}}
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			e.Exec(ctx, l, io.Discard)
			cancel()
		}
	})
}

func hasSeed(seeds []string, verb string) bool {
	for _, s := range seeds {
		if Verb(s) == verb {
			return true
		}
	}
	return false
}
