package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"nwids/internal/obs"
)

// tiny returns a small copy of w that keeps its topology, payload, workers
// and mode. The name changes so no recorded digest applies.
func tiny(w *workload) *workload {
	c := *w
	c.Name += "-tiny"
	c.SetupReps, c.Proposals = 1, 1
	c.Sessions = 600
	if c.DriftPreset != "" {
		c.Sessions = 120
	}
	return &c
}

// tinyWorkloads skips the NTT replay under -short: its cold solve alone
// takes about ten seconds per set-up.
func tinyWorkloads(t *testing.T) []*workload {
	var out []*workload
	for _, w := range workloads {
		if testing.Short() && w.Topology == "NTT" {
			continue
		}
		out = append(out, tiny(w))
	}
	return out
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range tinyWorkloads(t) {
		t.Run(w.Name, func(t *testing.T) {
			e2e, err := endToEndRun(w, 3, defaultHashSeed, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, e2e, endToEnd)
			outcome := "max_work_share"
			if w.DriftPreset != "" {
				outcome = "moved_frac"
			}
			for _, k := range []string{"error_rate", outcome} {
				if _, ok := e2e.Info[k]; !ok {
					t.Errorf("end-to-end run does not print %s", k)
				}
			}

			traced, err := tracedRun(w, 3, defaultHashSeed, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, traced, perLayer)
			if traced.Digest != e2e.Digest {
				t.Errorf("traced digest %s, untraced %s", traced.Digest, e2e.Digest)
			}
			if _, err := os.Stat(traced.TraceOut); err != nil {
				t.Errorf("chrome trace: %v", err)
			}
		})
	}
}

func checkMetrics(t *testing.T, r *report, defs []metricDef) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Errorf("run not correct: attempted %d failed %d; outcomes %+v", r.Attempted, r.Failed, r.Outcomes)
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s missing", d.Name)
			continue
		}
		if m.Unit != d.Unit || m.Unit == "" {
			t.Errorf("metric %s unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, want %d", len(r.Metrics), len(defs))
	}
}

// TestGateFailuresRaiseErrorRate checks that a tampered digest and an
// injected missed detection each make error_rate non-zero.
func TestGateFailuresRaiseErrorRate(t *testing.T) {
	rate := func(outcomes ...outcome) float64 {
		r := newReport(workloads[0], 1, defaultHashSeed, 0)
		for _, o := range outcomes {
			r.add(o)
		}
		r.finish()
		return r.Info["error_rate"].Value
	}

	rw := tiny(workloadByName(geant))
	rw.Live = false // in-process delivery keeps the gate test quick
	p, err := rw.setup(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	good, _ := rw.run(p, 1, defaultHashSeed, "")
	if rate(good) != 0 || rate(good, checkReplay(good.replay, good.Digest)) != 0 {
		t.Fatalf("clean replay has failures: %+v", good)
	}
	if got := rate(checkReplay(good.replay, "0000000000000000")); got != 1 {
		t.Errorf("tampered replay digest: error_rate %g, want 1", got)
	}
	missed := *good.replay
	missed.DetectedSessions--
	if got := rate(checkReplay(&missed, "")); got <= 0 {
		t.Errorf("missed replay detection: error_rate %g, want > 0", got)
	}
	changed := good
	changed.Digest = "0000000000000000"
	if got := rate(good, changed); got != 0.5 {
		t.Errorf("a call whose digest differs from the first call's: error_rate %g, want 0.5", got)
	}

	dw := tiny(workloadByName(drift))
	p, err = dw.setup(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	dgood, _ := dw.run(p, 1, defaultHashSeed, "")
	if rate(dgood) != 0 {
		t.Fatalf("clean drift run has failures: %+v", dgood)
	}
	if got := rate(checkDrift(dgood.drift, "0000000000000000")); got != 1 {
		t.Errorf("tampered drift digest: error_rate %g, want 1", got)
	}
	dmissed := *dgood.drift
	dmissed.Missed++
	if got := rate(checkDrift(&dmissed, "")); got <= 0 {
		t.Errorf("missed drift detection: error_rate %g, want > 0", got)
	}
}

// checkSelfTimes asserts every self time is non-negative and that the
// self times in each span's subtree sum to no more than the span.
func checkSelfTimes(t *testing.T, spans []obs.SpanRecord) {
	t.Helper()
	self := selfTimes(spans)
	parent := spanParents(spans)
	subtree := map[uint64]time.Duration{}
	for _, s := range spans {
		if self[s.ID] < 0 {
			t.Errorf("span %s: negative self time %v", s.Name, self[s.ID])
		}
		for id := s.ID; id != 0; id = parent[id] {
			subtree[id] += self[s.ID]
		}
	}
	for _, s := range spans {
		if d := s.End.Sub(s.Start); subtree[s.ID] > d {
			t.Errorf("span %s: subtree self times %v exceed the span's %v", s.Name, subtree[s.ID], d)
		}
	}
}

func TestTracedSelfTimes(t *testing.T) {
	r, err := tracedRun(tiny(workloadByName(drift)), 2, defaultHashSeed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.spans) < 10 {
		t.Fatalf("only %d spans recorded", len(r.spans))
	}
	checkSelfTimes(t, r.spans)
	var solve bool
	for _, row := range r.SelfTime {
		solve = solve || row.Name == "replication.solve"
	}
	if !solve {
		t.Error("the program's replication.solve span tree is not in the trace")
	}
}

// TestSelfTimesSynthetic covers overlapping children, a child running past
// its parent, and a parentless span attached by containment.
func TestSelfTimesSynthetic(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	spans := []obs.SpanRecord{
		{ID: 1, Name: "perfbench", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "a", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Name: "b", Start: at(30), End: at(60)},
		{ID: 4, Parent: 1, Name: "c", Start: at(90), End: at(120)},
		{ID: 5, Name: "replication.solve", Start: at(12), End: at(20)},
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{1: 40 * time.Millisecond, 2: 22 * time.Millisecond, 3: 30 * time.Millisecond, 4: 30 * time.Millisecond, 5: 8 * time.Millisecond}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
	if p := spanParents(spans)[5]; p != 2 {
		t.Errorf("parentless span attached to %d, want 2", p)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json, the metric catalog
// and the README's mapping table in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, catalog %s", got, want)
	}
	render := func(defs []metricDef) string {
		var out []string
		for _, d := range defs {
			out = append(out, d.Name+" "+d.Unit+" "+d.Better)
		}
		return strings.Join(out, "\n")
	}
	var e2e, layer []metricDef
	for _, m := range bench.EndToEnd {
		e2e = append(e2e, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	for _, m := range bench.PerLayer {
		layer = append(layer, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if render(e2e) != render(endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end:\n%s\ncatalog:\n%s", render(e2e), render(endToEnd))
	}
	if render(layer) != render(perLayer) {
		t.Errorf("BENCHMARK.json per_layer:\n%s\ncatalog:\n%s", render(layer), render(perLayer))
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		if row := fmt.Sprintf("| `%s` | %s | %s |", d.Name, d.Unit, d.Moves); !strings.Contains(string(readme), row) {
			t.Errorf("README.md lacks the mapping row %s", row)
		}
	}
}

// TestPrintDigests prints the recordedDigests table for the full-size
// workloads. It runs only with PERFBENCH_DIGESTS=1, since it makes a
// full-size run per seed.
func TestPrintDigests(t *testing.T) {
	if os.Getenv("PERFBENCH_DIGESTS") != "1" {
		t.Skip("set PERFBENCH_DIGESTS=1 to regenerate the recorded digests")
	}
	var b strings.Builder
	b.WriteString("var recordedDigests = map[string]map[int64]string{\n")
	for _, w := range workloads {
		p, err := w.setup(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		seeds := []int64{w.HeldOutSeed}
		for s := int64(0); s <= 16; s++ {
			seeds = append(seeds, s)
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		fmt.Fprintf(&b, "\t%q: {", w.Name)
		for i, s := range seeds {
			o, _ := w.run(p, s, defaultHashSeed, "")
			if o.Failed != 0 {
				t.Fatalf("%s seed %d: %v", w.Name, s, o.Problems)
			}
			if i%4 == 0 {
				b.WriteString("\n\t\t")
			} else {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%d: %q,", s, o.Digest)
		}
		b.WriteString("\n\t},\n")
	}
	b.WriteString("}\n")
	t.Log("\n" + b.String())
}
