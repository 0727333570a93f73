package shellcmd

import (
	"context"
	"io"
	"testing"
)

// BenchmarkExecSelect times one served select as a session runs it —
// Engine.Exec of select over a LANDC 0.2 snapshot, the 1 024 windows of
// seed 1 (select_wire's mix), into io.Discard, on one warm engine. It
// counts what query's BenchmarkSelect cannot: the WKT parse, the
// engine's tester and the summary line. One op is one select.
func BenchmarkExecSelect(b *testing.B) {
	e, lines := snapshotEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if _, err := e.Exec(context.Background(), lines[i%len(lines)], io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
