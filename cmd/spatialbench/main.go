// Command spatialbench is the paper-figure runner: it measures any (or
// all) of Table 2, Figures 10–16 and the Table 1 pre-processing comparison
// on the synthetic evaluation datasets. Every experiment runs once as a
// discarded warm-up and then -repeats times in a pinned environment; the
// summary prints n, mean and stddev per plotted point and the ratio to the
// point's software baseline, and -json writes every repeat of every point.
// The system benchmark is bench/, not this command.
//
// Usage:
//
//	spatialbench                                   # everything, scale 0.05, 5 repeats
//	spatialbench -exp table2,fig10,fig11 -scale 0.1
//	spatialbench -exp fig12 -repeats 10 -json fig12.json
//	spatialbench -exp fig15 -cpuprofile cpu.out    # hot-path diagnosis
//
// Exit status: 0 on a full run, 1 when -timeout interrupted it (the
// completed experiments are still summarized, written and profiled), 2 on
// a usage error (nothing is run).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("spatialbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "comma-separated experiments: table2,fig10,...,fig16,hull or all")
	scale := fs.Float64("scale", experiments.DefaultScale,
		"dataset scale in (0,1]: fraction of the paper's object counts")
	repeats := fs.Int("repeats", 5, "timed passes per experiment, after one discarded warm-up pass")
	timeout := fs.Duration("timeout", 0,
		"overall time limit (0 = none); an expired run keeps the completed experiments and exits 1")
	jsonOut := fs.String("json", "", "write the environment and every repeat's Record to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write an allocation profile taken at exit to this file (go tool pprof)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(rc int, err error) int {
		fmt.Fprintln(stderr, "spatialbench:", err)
		return rc
	}
	exps, err := experiments.Select(*exp)
	switch {
	case err != nil:
		return fail(2, err)
	case fs.NArg() > 0:
		return fail(2, fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	case !(*scale > 0 && *scale <= 1):
		return fail(2, fmt.Errorf("-scale %v out of (0, 1]", *scale))
	case *repeats < 1:
		return fail(2, fmt.Errorf("-repeats %d: need at least 1", *repeats))
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(1, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(1, err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				code = max(code, fail(1, err))
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			if err := writeHeapProfile(*memProfile); err != nil {
				code = max(code, fail(1, err))
			}
		}()
	}

	r := experiments.NewRunner(*scale)
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		r.Ctx = ctx
	}
	records, env := r.Run(exps, *repeats, stdout)
	experiments.WriteSummary(stdout, env, experiments.Summarize(records))
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, report{Env: env, Records: records}); err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stdout, "-- wrote %d records to %s\n", len(records), *jsonOut)
	}
	if r.Err != nil {
		return fail(1, fmt.Errorf("interrupted, %d records kept: %w", len(records), r.Err))
	}
	return 0
}

// report is the -json file.
type report struct {
	Env     experiments.Env      `json:"env"`
	Records []experiments.Record `json:"records"`
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // materialize the steady-state heap before sampling
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
