package query

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
)

// fillStats sets every numeric field of a Stats, the embedded
// core.Stats's included, to a distinct nonzero value derived from base,
// sets bools true, and tags strings. Using reflection here means a future
// Stats field cannot silently be skipped by Merge: the exhaustiveness test
// below fails until Merge (or core.Stats.Add) handles it.
func fillStats(base int64) Stats {
	var s Stats
	n := base
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			n++
			switch f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(n)
			case reflect.Float64:
				f.SetFloat(float64(n))
			case reflect.Bool:
				f.SetBool(true)
			case reflect.String:
				f.SetString("op")
			case reflect.Struct:
				fill(f)
			default:
				panic("unhandled Stats field kind " + f.Kind().String())
			}
		}
	}
	fill(reflect.ValueOf(&s).Elem())
	return s
}

// TestStatsMergeSumsEveryField checks Merge field by field, into the
// embedded core.Stats too.
func TestStatsMergeSumsEveryField(t *testing.T) {
	a, b := fillStats(100), fillStats(5000)
	m := a
	m.Merge(b)
	var check func(av, bv, mv reflect.Value)
	check = func(av, bv, mv reflect.Value) {
		typ := av.Type()
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			switch av.Field(i).Kind() {
			case reflect.Int, reflect.Int64:
				want := av.Field(i).Int() + bv.Field(i).Int()
				if got := mv.Field(i).Int(); got != want {
					t.Errorf("Merge dropped %s: got %d, want %d", name, got, want)
				}
			case reflect.Float64:
				if got, want := mv.Field(i).Float(), av.Field(i).Float()+bv.Field(i).Float(); got != want {
					t.Errorf("Merge dropped %s: got %v, want %v", name, got, want)
				}
			case reflect.Bool:
				if !mv.Field(i).Bool() {
					t.Errorf("Merge cleared bool %s", name)
				}
			case reflect.Struct:
				check(av.Field(i), bv.Field(i), mv.Field(i))
			}
		}
	}
	check(reflect.ValueOf(a), reflect.ValueOf(b), reflect.ValueOf(m))
}

func TestStatsMergeAssociative(t *testing.T) {
	a, b, c := fillStats(10), fillStats(200), fillStats(3000)
	left := a
	left.Merge(b)
	left.Merge(c)
	bc := b
	bc.Merge(c)
	right := a
	right.Merge(bc)
	if left != right {
		t.Fatalf("Merge not associative:\n(a·b)·c = %+v\na·(b·c) = %+v", left, right)
	}
}

func TestStatsMergeOpAndBool(t *testing.T) {
	var s Stats
	s.Merge(Stats{Op: "join", Results: 3, SnapshotMMap: true})
	if s.Op != "join" || s.Results != 3 || !s.SnapshotMMap {
		t.Fatalf("merge into zero value: %+v", s)
	}
	s.Merge(Stats{Op: "select", Results: 2})
	if s.Op != "join" {
		t.Fatalf("Merge overwrote Op: %q", s.Op)
	}
	if s.Results != 5 || !s.SnapshotMMap {
		t.Fatalf("second merge: %+v", s)
	}
}

// TestStatsWireContract pins the keys of the stats record a shard writes
// on its "stats <json>" line and the coordinator decodes: the sorted key
// set of a fully filled record, the keys a zero record still writes (the
// ones without omitempty), and a round trip of the filled record through
// json.Unmarshal into a zero Stats, as coord decodes a shard's line.
func TestStatsWireContract(t *testing.T) {
	keys := func(s Stats) []string {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	full := []string{"candidates", "compared", "edge_index_hits", "edge_index_skipped_edges", "filter_hits",
		"filter_rejects", "geometry_ms", "hw_fallbacks", "hw_passed", "hw_rejects", "intermediate_filter_ms",
		"interval_checks", "interval_inconclusive", "interval_rejects", "interval_true_hits", "live_delta",
		"live_tombstones", "mbr_filter_ms", "mbr_rejects", "op", "panics", "pip_hits", "pipeline_batches",
		"pipeline_filter_ns", "pipeline_refine_ns", "quarantined", "results",
		"sig_checks", "sig_rejects", "snapshot_bytes", "snapshot_load_ms", "snapshot_mmap", "snapshot_sections",
		"stream_rows_emitted", "sw_direct", "tests"}
	if got := keys(fillStats(1)); !slices.Equal(got, full) {
		t.Errorf("filled record's keys:\n got %q\nwant %q", got, full)
	}
	always := []string{"candidates", "compared", "edge_index_hits", "edge_index_skipped_edges", "geometry_ms",
		"hw_fallbacks", "hw_passed", "hw_rejects", "intermediate_filter_ms", "mbr_filter_ms", "mbr_rejects", "op",
		"panics", "pip_hits", "quarantined", "results", "sw_direct", "tests"}
	if got := keys(Stats{}); !slices.Equal(got, always) {
		t.Errorf("zero record's keys:\n got %q\nwant %q", got, always)
	}

	want, err := json.Marshal(fillStats(1))
	if err != nil {
		t.Fatal(err)
	}
	line := append([]byte("stats "), want...)
	var decoded Stats
	if err := json.Unmarshal(line[len("stats "):], &decoded); err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("round trip changed the record:\n got %s\nwant %s", got, want)
	}
}

// TestInlineRecordsCarryTheirOwnCounters: two selections inline on one
// tester each return the counters they added, and the tester holds the
// sum of both records on top of what it held before.
func TestInlineRecordsCarryTheirOwnCounters(t *testing.T) {
	tester := core.NewTester(core.Config{Resolution: 8})
	tester.Stats.Tests = 1000 // counts from before the selections
	held := tester.Stats
	windows := data.MustLoad("STATES50", 1).Objects[:2]
	var records [2]Stats
	for i, q := range windows {
		var err error
		if _, records[i], err = IntersectionSelectView(bg, layerA.View(), q, tester, JoinOptions{}); err != nil {
			t.Fatal(err)
		}
		checkStatsPartition(t, "window", records[i].Stats)
		if records[i].Tests == 0 || records[i].Tests != int64(records[i].Compared) {
			t.Fatalf("window %d: record counts %d tests for %d compared", i, records[i].Tests, records[i].Compared)
		}
	}
	if records[0].Stats == records[1].Stats {
		t.Fatal("both windows report the same counters; pick windows that differ")
	}
	want := held
	want.Add(records[0].Stats)
	want.Add(records[1].Stats)
	if tester.Stats != want {
		t.Errorf("tester holds %+v, want the earlier counts plus both records: %+v", tester.Stats, want)
	}
}
