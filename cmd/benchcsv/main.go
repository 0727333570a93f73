// Command benchcsv flattens spatialbench's BENCH_*.json record files
// into one CSV for spreadsheet/plotting pipelines (scripts/run_all.sh
// uses it to emit the analysis artifacts next to the raw JSON).
//
//	benchcsv BENCH_shard.json BENCH_baseline.json > bench.csv
//	spatialbench -exp shard -json /dev/stdout | benchcsv -o shard.csv -
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/experiments"
)

func main() {
	out := flag.String("o", "", "output CSV path (default stdout)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchcsv [-o out.csv] <records.json | -> ...")
		os.Exit(2)
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcsv:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"source", "experiment", "workload", "tester", "param",
		"scale", "wall_ms", "candidates", "results", "tests", "hw_reject_rate",
	}); err != nil {
		fmt.Fprintln(os.Stderr, "benchcsv:", err)
		os.Exit(1)
	}
	for _, path := range flag.Args() {
		records, err := readRecords(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcsv: %s: %v\n", path, err)
			os.Exit(1)
		}
		for _, r := range records {
			if err := cw.Write([]string{
				path, r.Experiment, r.Workload, r.Tester, r.Param,
				strconv.FormatFloat(r.Scale, 'g', -1, 64),
				strconv.FormatFloat(r.WallMS, 'f', 3, 64),
				strconv.Itoa(r.Candidates),
				strconv.Itoa(r.Results),
				strconv.FormatInt(r.Tests, 10),
				strconv.FormatFloat(r.HWRejectRate, 'f', 4, 64),
			}); err != nil {
				fmt.Fprintln(os.Stderr, "benchcsv:", err)
				os.Exit(1)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		fmt.Fprintln(os.Stderr, "benchcsv:", err)
		os.Exit(1)
	}
}

// readRecords decodes one BenchRecord JSON file; "-" reads stdin.
func readRecords(path string) ([]experiments.BenchRecord, error) {
	var raw []byte
	var err error
	if path == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	var records []experiments.BenchRecord
	if err := json.Unmarshal(raw, &records); err != nil {
		return nil, err
	}
	return records, nil
}
