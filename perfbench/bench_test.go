package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// smallLoops keeps each workload's test corpus to about a second of
// compilation.
var smallLoops = map[string]int{"fit-exec": 20, "spill-tail": 4, "scale": 2}

// TestCountsAndDigestRepeat pins what later changes may rest count-based
// claims on: two traced runs at one seed give identical work counts and
// output digests, every replay reproduces core's result, and every
// compilation executes correctly.
func TestCountsAndDigestRepeat(t *testing.T) {
	for _, w := range workloads {
		n := smallLoops[w.name]
		a := bench(w, w.genSeed, 7, n, 0, true)
		b := bench(w, w.genSeed, 7, n, 0, true)
		if !a.result.Correct || a.result.Failed != 0 {
			t.Errorf("%s: run not correct:\n%s", w.name, strings.Join(a.info[:min(len(a.info), 5)], "\n"))
		}
		if a.counts != b.counts {
			t.Errorf("%s: work counts differ between runs:\n%+v\n%+v", w.name, a.counts, b.counts)
		}
		if a.digest != b.digest {
			t.Errorf("%s: output digest differs between runs: %s vs %s", w.name, a.digest, b.digest)
		}
		if jobs := int64(len(prepare(w, w.genSeed, 7, n))); a.counts.Compiles != jobs {
			t.Errorf("%s: replay compiled %d of %d jobs", w.name, a.counts.Compiles, jobs)
		}
	}
}

// TestMetricsMatchBenchmarkJSON checks the harness prints exactly the
// metrics BENCHMARK.json declares, with the declared units, in each mode.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	w, _ := lookup("scale")
	for _, mode := range []struct {
		traced bool
		want   []decl
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		got := bench(w, w.genSeed, 1, smallLoops[w.name], 0, mode.traced).result.Metrics
		var names []string
		for _, d := range mode.want {
			names = append(names, d.Name)
			m, ok := got[d.Name]
			if !ok {
				t.Errorf("trace=%t: metric %s not printed", mode.traced, d.Name)
			} else if m.Unit != d.Unit {
				t.Errorf("trace=%t: metric %s unit %q, BENCHMARK.json says %q", mode.traced, d.Name, m.Unit, d.Unit)
			}
		}
		if len(got) != len(mode.want) {
			var extra []string
			for name := range got {
				extra = append(extra, name)
			}
			sort.Strings(extra)
			t.Errorf("trace=%t: printed %d metrics %v, BENCHMARK.json declares %d %v", mode.traced, len(got), extra, len(mode.want), names)
		}
	}
}
