// Command spatialbench reproduces the paper's evaluation: it runs any (or
// all) of Table 2 and Figures 10–16 on the synthetic evaluation datasets
// and prints the same series the paper plots. With -json it additionally
// writes every measured point as a machine-readable BenchRecord, so the
// repository's performance trajectory can be tracked run over run.
//
// Usage:
//
//	spatialbench -exp all            # everything, default scale
//	spatialbench -exp fig12 -scale 0.1
//	spatialbench -exp table2,fig10,fig11
//	spatialbench -exp fig12 -json BENCH_fig12.json
//	spatialbench -exp locality -cpuprofile cpu.out   # hot-path diagnosis
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments: table2,fig10,...,fig16,hull,locality,coldstart,ingest,shard,intervals,failover or all")
	scale := flag.Float64("scale", experiments.DefaultScale,
		"dataset scale in (0,1]: fraction of the paper's object counts")
	timeout := flag.Duration("timeout", 0,
		"overall time limit (0 = none); an expired run stops after the current point and exits nonzero")
	jsonOut := flag.String("json", "",
		"write machine-readable BenchRecord measurements to this file (e.g. BENCH_all.json)")
	cpuProfile := flag.String("cpuprofile", "",
		"write a CPU profile of the experiment run to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "",
		"write an allocation profile taken at exit to this file (go tool pprof)")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spatialbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "spatialbench:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "spatialbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state heap before sampling
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "spatialbench:", err)
			}
		}()
	}

	r := experiments.NewRunner(*scale, os.Stdout)
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		r.Ctx = ctx
	}
	all := []string{"table2", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "hull", "locality", "coldstart", "ingest", "shard", "intervals", "failover"}
	want := map[string]bool{}
	if *exp == "all" {
		for _, e := range all {
			want[e] = true
		}
	} else {
		for _, e := range strings.Split(*exp, ",") {
			want[strings.TrimSpace(strings.ToLower(e))] = true
		}
	}

	sc := *scale
	run := map[string]func() []experiments.BenchRecord{
		"table2": func() []experiments.BenchRecord { return experiments.Table2Records(r.Table2(), sc) },
		"fig10":  func() []experiments.BenchRecord { return experiments.Fig10Records(r.Fig10(), sc) },
		"fig11":  func() []experiments.BenchRecord { return experiments.SweepRecords("fig11", r.Fig11(), sc) },
		"fig12":  func() []experiments.BenchRecord { return experiments.SweepRecords("fig12", r.Fig12(), sc) },
		"fig13":  func() []experiments.BenchRecord { return experiments.Fig13Records(r.Fig13(), sc) },
		"fig14":  func() []experiments.BenchRecord { return experiments.Fig14Records(r.Fig14(), sc) },
		"fig15":  func() []experiments.BenchRecord { return experiments.SweepRecords("fig15", r.Fig15(), sc) },
		"fig16":  func() []experiments.BenchRecord { return experiments.Fig16Records(r.Fig16(), sc) },
		"hull":   func() []experiments.BenchRecord { return experiments.HullRecords(r.ExtraHull(), sc) },
		"locality": func() []experiments.BenchRecord {
			return experiments.LocalityRecords(r.ExtraLocality(), sc)
		},
		"coldstart": func() []experiments.BenchRecord {
			return experiments.ColdstartRecords(r.Coldstart(), sc)
		},
		"ingest": func() []experiments.BenchRecord {
			return experiments.IngestRecords(r.Ingest(), sc)
		},
		"shard": func() []experiments.BenchRecord {
			return experiments.ShardRecords(r.Shard(), sc)
		},
		"intervals": func() []experiments.BenchRecord {
			return experiments.IntervalRecords(r.Intervals(), sc)
		},
		"failover": func() []experiments.BenchRecord {
			return experiments.FailoverRecords(r.Failover(), sc)
		},
	}
	var records []experiments.BenchRecord
	ran := 0
	for _, name := range all {
		if !want[name] {
			continue
		}
		start := time.Now()
		records = append(records, run[name]()...)
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "spatialbench: %s interrupted: %v\n", name, r.Err)
			os.Exit(1)
		}
		fmt.Printf("-- %s done in %v\n", name, time.Since(start).Round(time.Millisecond))
		ran++
		delete(want, name)
	}
	for name := range want {
		fmt.Fprintf(os.Stderr, "spatialbench: unknown experiment %q (have %s, all)\n",
			name, strings.Join(all, ", "))
		os.Exit(2)
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "spatialbench: nothing to run")
		os.Exit(2)
	}
	if *jsonOut != "" {
		if err := writeRecords(*jsonOut, records); err != nil {
			fmt.Fprintln(os.Stderr, "spatialbench:", err)
			os.Exit(1)
		}
		fmt.Printf("-- wrote %d records to %s\n", len(records), *jsonOut)
	}
}

func writeRecords(path string, records []experiments.BenchRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(records); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
