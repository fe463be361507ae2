// Command perfbench is the repository benchmark. It runs one named
// workload through the calls the binaries make (emulation.Run,
// emulation.RunDrift, core.SolveReplication), checks every run's outputs,
// and prints a one-line JSON result last on standard output:
//
//	perfbench --workload replay-ntt-64 --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics (pps, setup_s, peak_rss_mb);
// --trace 1 is a separate traced run that times each layer's public
// functions from outside on the same generated inputs and reports the
// per-layer metrics, writing a Chrome trace and a report next to it under
// --out. perfbench/run.py builds and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"nwids/internal/obs"
)

func main() {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 0, "workload generation seed (GenSeed; the program treats 0 as 1)")
	hashSeed := flag.Uint("hash-seed", defaultHashSeed, "shim hash seed")
	seconds := flag.Float64("seconds", 10, "how long the end-to-end run measures repeated run calls")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the report and Chrome trace")
	flag.Parse()

	w := workloadByName(*name)
	if w == nil || *seed < 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || *hashSeed > 1<<32-1 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seed %d, seconds %g, trace %d)\n", *name, *seed, *seconds, *trace)
		os.Exit(2)
	}
	var (
		rep *report
		err error
	)
	if *trace == 1 {
		rep, err = tracedRun(w, *seed, uint32(*hashSeed), *out)
	} else {
		rep, err = endToEndRun(w, *seed, uint32(*hashSeed), time.Duration(*seconds*float64(time.Second)))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
		os.Exit(1)
	}
	if err := rep.write(*out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one invocation measured. The result line carries
// Correct/Attempted/Failed/Metrics; the rest goes to the report file.
type report struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     int                    `json:"trace"`
	Env       envRecord              `json:"env"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Info holds printed values that are not result metrics: error_rate,
	// max_work_share / moved_frac on the end-to-end run.
	Info map[string]metricValue `json:"info"`
	// Dists are the per-call timing distributions behind the medians.
	Dists map[string]dist `json:"dists,omitempty"`
	// Samples are the raw per-run values behind end-to-end medians.
	Samples  map[string][]float64 `json:"samples,omitempty"`
	Digest   string               `json:"digest"`
	Checked  string               `json:"digest_check"`
	Outcomes []outcome            `json:"outcomes"`
	SelfTime []selfRow            `json:"self_time,omitempty"`
	TraceOut string               `json:"trace_file,omitempty"`

	spans []obs.SpanRecord // the traced run's spans
}

func newReport(w *workload, seed int64, hashSeed uint32, trace int) *report {
	return &report{
		Workload: w.Name, Seed: seed, Trace: trace,
		Env:     environment(w, seed, hashSeed),
		Metrics: map[string]metricValue{}, Info: map[string]metricValue{},
		Dists: map[string]dist{}, Samples: map[string][]float64{},
	}
}

// add records a run call's outcome, checking it against the digest of the
// report's first outcome when no digest is recorded for the seed.
func (r *report) add(o outcome) {
	if len(r.Outcomes) == 0 {
		r.Digest = o.Digest
	} else if o.Digest != r.Digest && o.Failed < o.Sessions {
		o.Failed = o.Sessions
		o.Problems = append(o.Problems, fmt.Sprintf("digest %s differs from the run's first call (%s)", o.Digest, r.Digest))
	}
	r.Attempted += o.Sessions
	r.Failed += o.Failed
	r.Outcomes = append(r.Outcomes, o)
}

func (r *report) finish() {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	if r.Attempted > 0 {
		r.Info["error_rate"] = metricValue{float64(r.Failed) / float64(r.Attempted), "ratio"}
	}
}

// endToEndRun is the --trace 0 run: set up SetupReps times (setup_s is the
// median), then repeat the run call until the measuring time is spent (pps
// is the median over calls), and read the process's peak RSS at the end.
func endToEndRun(w *workload, seed int64, hashSeed uint32, measure time.Duration) (*report, error) {
	rep := newReport(w, seed, hashSeed, 0)
	want, checked := recordedDigest(w.Name, seed, hashSeed)
	rep.Checked = checked

	var p *prepared
	for i := 0; i < w.SetupReps; i++ {
		runtime.GC()
		start := time.Now()
		var err error
		p, err = w.setup(nil, nil)
		elapsed := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		rep.Samples["setup_s"] = append(rep.Samples["setup_s"], elapsed.Seconds())
	}

	began := time.Now()
	for len(rep.Outcomes) == 0 || time.Since(began) < measure {
		runtime.GC()
		o, elapsed := w.run(p, seed, hashSeed, want)
		rep.add(o)
		rep.Samples["pps"] = append(rep.Samples["pps"], float64(o.Packets)/elapsed.Seconds())
		rep.Samples["run_s"] = append(rep.Samples["run_s"], elapsed.Seconds())
	}
	rep.Metrics["pps"] = metricValue{medianOf(rep.Samples["pps"]), "1/s"}
	rep.Metrics["setup_s"] = metricValue{medianOf(rep.Samples["setup_s"]), "s"}
	rep.Metrics["peak_rss_mb"] = metricValue{peakRSSMB(), "MB"}
	last := rep.Outcomes[len(rep.Outcomes)-1]
	if p.drift != nil {
		rep.Info["moved_frac"] = metricValue{last.MovedFrac, "ratio"}
	} else {
		rep.Info["max_work_share"] = metricValue{last.MaxWorkShare, "ratio"}
	}
	rep.finish()
	return rep, nil
}

// write saves the full report as JSON under dir.
func (r *report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("report-%s-seed%d-trace%d.json", r.Workload, r.Seed, r.Trace))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// print writes the human-readable summary and, last, the one-line result.
func (r *report) print(f *os.File) {
	fmt.Fprintf(f, "perfbench %s seed=%d trace=%d\n", r.Workload, r.Seed, r.Trace)
	env, _ := json.Marshal(r.Env)
	fmt.Fprintf(f, "env %s\n", env)
	fmt.Fprintf(f, "digest %s (%s)\n", r.Digest, r.Checked)
	for _, o := range r.Outcomes {
		for _, p := range o.Problems {
			fmt.Fprintf(f, "FAIL %s\n", p)
		}
	}
	for _, k := range sortedKeys(r.Samples) {
		fmt.Fprintf(f, "samples %s %v\n", k, r.Samples[k])
	}
	defs := endToEnd
	if r.Trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		m := r.Metrics[d.Name]
		line := fmt.Sprintf("metric %-26s %14.6g %-6s", d.Name, m.Value, m.Unit)
		if ds, ok := r.Dists[d.Name]; ok {
			line += fmt.Sprintf(" median %.6g", ds.Median)
			if ds.Pct > 0 {
				line += fmt.Sprintf(" p%d %.6g", ds.Pct, ds.High)
			}
			line += fmt.Sprintf(" n=%d", ds.N)
		}
		if d.Moves != "" {
			line += "  moves: " + d.Moves
		}
		fmt.Fprintln(f, line)
	}
	for _, k := range sortedKeys(r.Info) {
		fmt.Fprintf(f, "metric %-26s %14.6g %s\n", k, r.Info[k].Value, r.Info[k].Unit)
	}
	for _, row := range r.SelfTime {
		fmt.Fprintf(f, "self %-10s %-34s n=%-6d total %.6fs self %.6fs\n", row.Layer, row.Name, row.Count, row.TotalS, row.SelfS)
	}
	if r.TraceOut != "" {
		fmt.Fprintf(f, "trace written to %s\n", r.TraceOut)
	}
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintf(f, "%s\n", line)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
